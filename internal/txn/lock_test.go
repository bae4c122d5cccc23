package txn

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestModeCompatibilityMatrix(t *testing.T) {
	// Rows: holder, columns: requester. Classic hierarchical matrix.
	want := map[[2]Mode]bool{
		{IS, IS}: true, {IS, IX}: true, {IS, S}: true, {IS, SIX}: true, {IS, X}: false,
		{IX, IS}: true, {IX, IX}: true, {IX, S}: false, {IX, SIX}: false, {IX, X}: false,
		{S, IS}: true, {S, IX}: false, {S, S}: true, {S, SIX}: false, {S, X}: false,
		{SIX, IS}: true, {SIX, IX}: false, {SIX, S}: false, {SIX, SIX}: false, {SIX, X}: false,
		{X, IS}: false, {X, IX}: false, {X, S}: false, {X, SIX}: false, {X, X}: false,
	}
	for pair, exp := range want {
		if got := compatible(pair[0], pair[1]); got != exp {
			t.Errorf("compatible(%v, %v) = %v, want %v", pair[0], pair[1], got, exp)
		}
	}
}

func TestModeSup(t *testing.T) {
	cases := []struct {
		a, b, want Mode
	}{
		{None, S, S},
		{IS, IX, IX},
		{IS, S, S},
		{S, IX, SIX},
		{IX, S, SIX},
		{S, X, X},
		{IX, X, X},
		{SIX, X, X},
		{SIX, S, SIX},
		{SIX, IX, SIX},
		{X, IS, X},
		{S, S, S},
	}
	for _, c := range cases {
		if got := sup(c.a, c.b); got != c.want {
			t.Errorf("sup(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAcquireSharedConcurrently(t *testing.T) {
	lm := NewLockManager()
	for tx := uint64(1); tx <= 5; tx++ {
		if err := lm.Acquire(tx, "r", S, NoWait); err != nil {
			t.Fatalf("tx %d: %v", tx, err)
		}
	}
}

func TestAcquireExclusiveConflicts(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "r", X, NoWait); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "r", S, NoWait); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("want ErrWouldBlock, got %v", err)
	}
	lm.ReleaseAll(1)
	if err := lm.Acquire(2, "r", S, NoWait); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestAcquireReentrantAndUpgrade(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "r", S, NoWait); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, "r", S, NoWait); err != nil {
		t.Fatalf("re-acquire same mode: %v", err)
	}
	if err := lm.Acquire(1, "r", X, NoWait); err != nil {
		t.Fatalf("upgrade S->X with no other holders: %v", err)
	}
	if got := lm.HeldModes(1)["r"]; got != X {
		t.Fatalf("held mode = %v, want X", got)
	}
}

func TestUpgradeBlockedByOtherReader(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "r", S, NoWait); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "r", S, NoWait); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, "r", X, NoWait); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("upgrade with concurrent reader: want ErrWouldBlock, got %v", err)
	}
}

func TestBlockingHandoff(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "r", X, Block); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- lm.Acquire(2, "r", X, Block) }()
	select {
	case err := <-got:
		t.Fatalf("acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("handoff: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestDeadlockDetection(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "a", X, Block); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "b", X, Block); err != nil {
		t.Fatal(err)
	}
	step := make(chan error, 1)
	go func() { step <- lm.Acquire(1, "b", X, Block) }() // 1 waits on 2
	time.Sleep(20 * time.Millisecond)
	// 2 requests a held by 1: closes the cycle; 2 must get ErrDeadlock.
	err := lm.Acquire(2, "a", X, Block)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	// Victim aborts: releases its locks; tx 1 proceeds.
	lm.ReleaseAll(2)
	select {
	case err := <-step:
		if err != nil {
			t.Fatalf("tx1 after victim abort: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("tx1 never unblocked")
	}
}

func TestDeadlockThreeWay(t *testing.T) {
	lm := NewLockManager()
	for tx := uint64(1); tx <= 3; tx++ {
		if err := lm.Acquire(tx, string(rune('a'+tx-1)), X, Block); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 2)
	go func() { done <- lm.Acquire(1, "b", X, Block) }()
	go func() { done <- lm.Acquire(2, "c", X, Block) }()
	time.Sleep(20 * time.Millisecond)
	err := lm.Acquire(3, "a", X, Block)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	lm.ReleaseAll(3)
	if err := <-done; err != nil {
		t.Fatalf("first waiter: %v", err)
	}
}

func TestFIFOPreventsWriterStarvation(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "r", S, Block); err != nil {
		t.Fatal(err)
	}
	writer := make(chan error, 1)
	go func() { writer <- lm.Acquire(2, "r", X, Block) }()
	time.Sleep(20 * time.Millisecond)
	// A new reader must queue behind the writer, not sneak in.
	if err := lm.Acquire(3, "r", S, NoWait); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("reader bypassed queued writer: %v", err)
	}
	lm.ReleaseAll(1)
	if err := <-writer; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

func TestReleaseAllWakesMultipleReaders(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "r", X, Block); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = lm.Acquire(uint64(10+i), "r", S, Block)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	lm.ReleaseAll(1)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
}

func TestNoWaitNeverDeadlocks(t *testing.T) {
	// §9 claim: "unfulfillable promise requests are rejected immediately
	// rather than blocking, we do not have to worry about deadlock".
	lm := NewLockManager()
	if err := lm.Acquire(1, "a", X, NoWait); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "b", X, NoWait); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, "b", X, NoWait); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("want ErrWouldBlock, got %v", err)
	}
	if err := lm.Acquire(2, "a", X, NoWait); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("want ErrWouldBlock, got %v", err)
	}
	// Both can release and retry; no one is stuck.
	lm.ReleaseAll(1)
	if err := lm.Acquire(2, "a", X, NoWait); err != nil {
		t.Fatal(err)
	}
}

func TestIntentionLocksAllowDisjointRowWriters(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "tbl/rooms", IX, NoWait); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, "row/rooms/101", X, NoWait); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "tbl/rooms", IX, NoWait); err != nil {
		t.Fatalf("second IX on table: %v", err)
	}
	if err := lm.Acquire(2, "row/rooms/102", X, NoWait); err != nil {
		t.Fatalf("disjoint row write: %v", err)
	}
	// But a table scanner (S) must be blocked by the IX holders.
	if err := lm.Acquire(3, "tbl/rooms", S, NoWait); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("scan during writes: want ErrWouldBlock, got %v", err)
	}
}

// waitQueued blocks until tx is queued on some lock, so a test can order
// steps deterministically around a goroutine parked in Acquire.
func waitQueued(t *testing.T, lm *LockManager, tx uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		lm.mu.Lock()
		_, queued := lm.waiting[tx]
		lm.mu.Unlock()
		if queued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tx %d never queued", tx)
}

// acquireOrHang runs one Acquire that must return promptly, failing the
// test instead of hanging it when the lock manager misses a deadlock.
func acquireOrHang(t *testing.T, lm *LockManager, tx uint64, name string, mode Mode) error {
	t.Helper()
	got := make(chan error, 1)
	go func() { got <- lm.Acquire(tx, name, mode, Block) }()
	select {
	case err := <-got:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("tx %d blocked forever on %s: undetected deadlock", tx, name)
		return nil
	}
}

// TestDeadlockThroughQueueJumpingUpgrade pins a cycle closed by an upgrade:
// the upgrade jumps the queue, so the queued waiter ends up waiting on a
// holder that was not there when it blocked.
func TestDeadlockThroughQueueJumpingUpgrade(t *testing.T) {
	lm := NewLockManager()
	for _, step := range []struct {
		tx   uint64
		name string
		mode Mode
	}{{1, "a", IX}, {2, "b", X}, {5, "a", IS}} {
		if err := lm.Acquire(step.tx, step.name, step.mode, NoWait); err != nil {
			t.Fatal(err)
		}
	}
	t2 := make(chan error, 1)
	go func() { t2 <- lm.Acquire(2, "a", S, Block) }() // blocked by T1's IX
	waitQueued(t, lm, 2)
	if err := lm.Acquire(5, "a", IX, NoWait); err != nil { // upgrade jumps T2
		t.Fatalf("upgrade: %v", err)
	}
	lm.ReleaseAll(1) // T2 now waits on T5 alone
	if err := acquireOrHang(t, lm, 5, "b", X); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("T5 on b: want ErrDeadlock, got %v", err)
	}
	lm.ReleaseAll(5)
	if err := <-t2; err != nil {
		t.Fatalf("T2 after victim abort: %v", err)
	}
}

// TestDeadlockThroughFIFOQueue pins a cycle through a compatible earlier
// waiter: wake is strict FIFO, so a request queued behind a blocked waiter
// waits on it even when their modes are compatible.
func TestDeadlockThroughFIFOQueue(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "a", IX, NoWait); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(3, "b", X, NoWait); err != nil {
		t.Fatal(err)
	}
	t2 := make(chan error, 1)
	go func() { t2 <- lm.Acquire(2, "a", S, Block) }() // blocked by T1's IX
	waitQueued(t, lm, 2)
	t3 := make(chan error, 1)
	go func() { t3 <- lm.Acquire(3, "a", IS, Block) }() // behind T2 in FIFO order
	waitQueued(t, lm, 3)
	if err := acquireOrHang(t, lm, 1, "b", X); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("T1 on b: want ErrDeadlock, got %v", err)
	}
	lm.ReleaseAll(1)
	for _, ch := range []chan error{t2, t3} {
		if err := <-ch; err != nil {
			t.Fatalf("waiter after victim abort: %v", err)
		}
	}
}
