package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

type testRow struct{ v int }

func (r *testRow) CloneRow() Row { c := *r; return &c }

func snapVal(t *testing.T, s *Snapshot, tbl, key string) (int, bool) {
	t.Helper()
	row, err := s.Get(tbl, key)
	if errors.Is(err, ErrNotFound) {
		return 0, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return row.(*testRow).v, true
}

func TestSnapshotReflectsCommits(t *testing.T) {
	s := NewStore()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Len("t"); got != 0 {
		t.Fatalf("fresh table Len = %d", got)
	}

	tx := s.Begin(Block)
	if err := tx.Put("t", "a", &testRow{v: 1}); err != nil {
		t.Fatal(err)
	}
	// Uncommitted writes must not leak into snapshots.
	if _, ok := snapVal(t, s.Snapshot(), "t", "a"); ok {
		t.Fatal("uncommitted write visible in snapshot")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, ok := snapVal(t, s.Snapshot(), "t", "a"); !ok || v != 1 {
		t.Fatalf("after commit: v=%d ok=%v", v, ok)
	}

	// An aborted transaction publishes nothing.
	before := s.Snapshot()
	tx2 := s.Begin(Block)
	if err := tx2.Put("t", "a", &testRow{v: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot() != before {
		t.Fatal("abort published a snapshot")
	}
	if v, _ := snapVal(t, s.Snapshot(), "t", "a"); v != 1 {
		t.Fatalf("after abort: v=%d", v)
	}

	// Deletes are reflected; old snapshots are immutable.
	old := s.Snapshot()
	tx3 := s.Begin(Block)
	if err := tx3.Delete("t", "a"); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := snapVal(t, s.Snapshot(), "t", "a"); ok {
		t.Fatal("deleted key still visible in fresh snapshot")
	}
	if v, ok := snapVal(t, old, "t", "a"); !ok || v != 1 {
		t.Fatalf("retained snapshot changed: v=%d ok=%v", v, ok)
	}
	if old.Version() >= s.Snapshot().Version() {
		t.Fatalf("versions not increasing: %d >= %d", old.Version(), s.Snapshot().Version())
	}
}

func TestSnapshotScanSortedAndCloned(t *testing.T) {
	s := NewStore()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(Block)
	for i := 0; i < 40; i++ {
		if err := tx.Put("t", fmt.Sprintf("k%02d", i), &testRow{v: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Len("t") != 40 {
		t.Fatalf("Len = %d", snap.Len("t"))
	}
	var keys []string
	var first *testRow
	err := snap.Scan("t", func(key string, row Row) bool {
		if first == nil {
			first = row.(*testRow)
		}
		keys = append(keys, key)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan not sorted: %q >= %q", keys[i-1], keys[i])
		}
	}
	// Scan hands out clones: mutating one must not corrupt the snapshot.
	first.v = 999
	if v, _ := snapVal(t, snap, "t", "k00"); v != 0 {
		t.Fatalf("snapshot aliased by scan result: v=%d", v)
	}
}

func TestSnapshotEpochSourceAndHook(t *testing.T) {
	s := NewStore()
	var epoch uint64 = 100
	s.SetEpochSource(func() uint64 { return epoch })
	var hookCalls int
	var lastTouched []TableKey
	s.SetCommitHook(func(snap *Snapshot, touched []TableKey) {
		hookCalls++
		lastTouched = touched
	})
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(Block)
	if err := tx.Put("t", "a", &testRow{v: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("t", "a", &testRow{v: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("t", "b", &testRow{v: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Epoch(); got != 100 {
		t.Fatalf("Epoch = %d, want 100", got)
	}
	if hookCalls != 1 {
		t.Fatalf("hook calls = %d", hookCalls)
	}
	if len(lastTouched) != 2 { // a deduped, b
		t.Fatalf("touched = %v", lastTouched)
	}

	// A read-only commit publishes nothing and does not call the hook.
	v := s.Snapshot().Version()
	tx2 := s.Begin(Block)
	if _, err := tx2.Get("t", "a"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Version() != v || hookCalls != 1 {
		t.Fatalf("read-only commit published (version %d -> %d, hooks %d)", v, s.Snapshot().Version(), hookCalls)
	}
}

// TestSnapshotConcurrentReadersNeverTorn hammers one key range with
// writers committing multi-key transactions while readers assert every
// snapshot shows a transactionally consistent pair (the store's writers
// always keep t/x == t/y).
func TestSnapshotConcurrentReadersNeverTorn(t *testing.T) {
	s := NewStore()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	init := s.Begin(Block)
	if err := init.Put("t", "x", &testRow{v: 0}); err != nil {
		t.Fatal(err)
	}
	if err := init.Put("t", "y", &testRow{v: 0}); err != nil {
		t.Fatal(err)
	}
	if err := init.Commit(); err != nil {
		t.Fatal(err)
	}

	const writers, rounds = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; {
				tx := s.Begin(Block)
				err := func() error {
					row, err := tx.Get("t", "x")
					if err != nil {
						return err
					}
					v := row.(*testRow).v + 1
					if err := tx.Put("t", "x", &testRow{v: v}); err != nil {
						return err
					}
					if err := tx.Put("t", "y", &testRow{v: v}); err != nil {
						return err
					}
					return tx.Commit()
				}()
				if errors.Is(err, ErrDeadlock) {
					// Two writers upgrading their shared read of x is a
					// genuine deadlock; the victim aborts and retries.
					_ = tx.Abort()
					continue
				}
				if err != nil {
					t.Error(err)
					_ = tx.Abort()
					return
				}
				i++
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				x, okx := snapVal(t, snap, "t", "x")
				y, oky := snapVal(t, snap, "t", "y")
				if !okx || !oky || x != y {
					t.Errorf("torn snapshot: x=%d(%v) y=%d(%v)", x, okx, y, oky)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if x, _ := snapVal(t, s.Snapshot(), "t", "x"); x != writers*rounds {
		t.Fatalf("final x = %d, want %d", x, writers*rounds)
	}
}
