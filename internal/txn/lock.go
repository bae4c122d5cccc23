// Package txn is the local ACID transaction substrate required by the
// prototype architecture of paper §8: "The solution we adopted here was to
// wrap each promise operation in a transaction … all accesses to the
// resource manager, as well as changes to the promise table are
// transactional, and this gives us the required level of isolation between
// concurrent activities. Note that the transaction is local to a trust
// domain and short-duration."
//
// The package provides:
//
//   - a hierarchical lock manager with the classic IS/IX/S/SIX/X modes and
//     waits-for-graph deadlock detection (victim = requester), and
//   - an in-memory multi-table store with per-transaction undo logs and
//     strict two-phase locking (all locks held to commit/abort).
//
// The same lock manager doubles as the long-duration lock service of the
// internal/baseline package, which models the "traditional lock-based
// isolation" the paper argues against for cross-service use (§1, §9).
package txn

import (
	"errors"
	"fmt"
	"sync"
)

// Mode is a lock mode in the standard hierarchical locking scheme.
type Mode int

// Lock modes, weakest to strongest.
const (
	None Mode = iota
	IS        // intention shared
	IX        // intention exclusive
	S         // shared
	SIX       // shared + intention exclusive
	X         // exclusive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case None:
		return "NONE"
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case SIX:
		return "SIX"
	case X:
		return "X"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// compatible reports whether a holder in mode a permits a new grant in mode b.
func compatible(a, b Mode) bool {
	switch a {
	case IS:
		return b != X
	case IX:
		return b == IS || b == IX
	case S:
		return b == IS || b == S
	case SIX:
		return b == IS
	case X:
		return false
	}
	return true // None
}

// sup returns the least mode at least as strong as both a and b, used for
// lock upgrades (e.g. holding S and requesting IX yields SIX).
func sup(a, b Mode) Mode {
	if a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	switch {
	case a == None:
		return b
	case a == IS:
		return b
	case a == IX && b == S:
		return SIX
	case a == IX:
		return b // SIX or X
	case a == S && b == SIX:
		return SIX
	case a == S:
		return X // S with IX handled above; S with X
	case a == SIX:
		return b // only X is above
	}
	return X
}

// Errors returned by lock acquisition.
var (
	// ErrDeadlock is returned to the transaction whose lock request would
	// close a cycle in the waits-for graph. The transaction should abort.
	ErrDeadlock = errors.New("txn: deadlock detected")
	// ErrWouldBlock is returned under WaitPolicy NoWait when the request
	// cannot be granted immediately. Promise managers use NoWait so that
	// "unfulfillable promise requests are rejected immediately rather than
	// blocking" (§9).
	ErrWouldBlock = errors.New("txn: lock not available")
	// ErrTxDone is returned when operating on a committed or aborted
	// transaction.
	ErrTxDone = errors.New("txn: transaction already finished")
)

// WaitPolicy selects blocking behaviour for lock requests.
type WaitPolicy int

// Wait policies.
const (
	// Block waits for the lock, subject to deadlock detection.
	Block WaitPolicy = iota
	// NoWait fails immediately with ErrWouldBlock if the lock is held
	// incompatibly.
	NoWait
)

// waiter is a queued lock request.
type waiter struct {
	tx    uint64
	mode  Mode
	ready chan error // receives nil on grant, ErrDeadlock on victimisation
}

// lockState tracks one lockable object.
type lockState struct {
	name    string
	granted map[uint64]Mode
	queue   []*waiter
}

// LockManager grants hierarchical locks to transactions identified by id.
type LockManager struct {
	mu    sync.Mutex
	locks map[string]*lockState
	// held tracks every lock name held per transaction, for ReleaseAll.
	held map[uint64]map[string]struct{}
	// waiting maps each blocked transaction to the lock it is queued on. The
	// waits-for graph is derived from it and the lock table when a request
	// blocks (see blockers), never stored, so it cannot go stale when an
	// upgrade jumps the queue and becomes a holder queued waiters wait on.
	waiting map[uint64]*lockState
}

// NewLockManager returns an empty LockManager.
func NewLockManager() *LockManager {
	return &LockManager{
		locks:   make(map[string]*lockState),
		held:    make(map[uint64]map[string]struct{}),
		waiting: make(map[uint64]*lockState),
	}
}

// Acquire obtains the named lock in the given mode for transaction tx.
// Re-acquiring a held lock upgrades it to sup(current, mode). Under Block,
// the call parks until granted or until deadlock detection chooses tx as
// victim; under NoWait it returns ErrWouldBlock instead of parking.
func (lm *LockManager) Acquire(tx uint64, name string, mode Mode, policy WaitPolicy) error {
	lm.mu.Lock()
	ls := lm.locks[name]
	if ls == nil {
		ls = &lockState{name: name, granted: make(map[uint64]Mode)}
		lm.locks[name] = ls
	}
	cur := ls.granted[tx]
	want := sup(cur, mode)
	if want == cur && cur != None {
		lm.mu.Unlock()
		return nil // already strong enough
	}
	if lm.grantable(ls, tx, want) {
		ls.granted[tx] = want
		lm.noteHeld(tx, name)
		lm.mu.Unlock()
		return nil
	}
	if policy == NoWait {
		lm.mu.Unlock()
		return ErrWouldBlock
	}
	w := &waiter{tx: tx, mode: want, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	lm.waiting[tx] = ls
	if lm.cycleFrom(tx) {
		// tx is the victim: remove it from the queue and fail. Waiters it
		// held up under strict FIFO may be grantable now.
		lm.removeWaiter(ls, w)
		delete(lm.waiting, tx)
		lm.wake(ls)
		lm.mu.Unlock()
		return ErrDeadlock
	}
	lm.mu.Unlock()

	err := <-w.ready
	return err
}

// grantable reports whether tx may hold `name` in mode want given current
// holders (ignoring tx's own grant, which is being upgraded). To preserve
// FIFO fairness, a fresh (non-upgrade) request is also blocked when earlier
// waiters are queued.
func (lm *LockManager) grantable(ls *lockState, tx uint64, want Mode) bool {
	for other, m := range ls.granted {
		if other == tx {
			continue
		}
		if !compatible(m, want) {
			return false
		}
	}
	// Upgrades jump the queue (standard treatment avoiding self-deadlock);
	// fresh requests respect FIFO order.
	if _, upgrading := ls.granted[tx]; !upgrading && len(ls.queue) > 0 {
		return false
	}
	return true
}

func (lm *LockManager) noteHeld(tx uint64, name string) {
	set := lm.held[tx]
	if set == nil {
		set = make(map[string]struct{})
		lm.held[tx] = set
	}
	set[name] = struct{}{}
}

// blockers lists the transactions tx is waiting on, read off the lock
// table: the holders of the lock tx is queued on whose modes conflict with
// its request, and every waiter queued ahead of it — wake is strict FIFO,
// so an earlier waiter blocks tx even when their modes are compatible.
// A transaction that is not waiting has no blockers.
func (lm *LockManager) blockers(tx uint64) []uint64 {
	ls := lm.waiting[tx]
	if ls == nil {
		return nil
	}
	var out []uint64
	for _, w := range ls.queue {
		if w.tx == tx {
			for other, m := range ls.granted {
				if other != tx && !compatible(m, w.mode) {
					out = append(out, other)
				}
			}
			break
		}
		out = append(out, w.tx)
	}
	return out
}

// cycleFrom reports whether the waits-for graph has a cycle reachable from
// start that returns to start.
func (lm *LockManager) cycleFrom(start uint64) bool {
	seen := make(map[uint64]bool)
	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		for _, v := range lm.blockers(u) {
			if v == start {
				return true
			}
			if !seen[v] {
				seen[v] = true
				if dfs(v) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

func (lm *LockManager) removeWaiter(ls *lockState, w *waiter) {
	for i, q := range ls.queue {
		if q == w {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			return
		}
	}
}

// ReleaseAll drops every lock held by tx and wakes any waiters that become
// grantable, in queue order.
func (lm *LockManager) ReleaseAll(tx uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	names := lm.held[tx]
	delete(lm.held, tx)
	for name := range names {
		ls := lm.locks[name]
		if ls == nil {
			continue
		}
		delete(ls.granted, tx)
		lm.wake(ls)
		if len(ls.granted) == 0 && len(ls.queue) == 0 {
			delete(lm.locks, name)
		}
	}
}

// wake grants queued requests that are now compatible, preserving FIFO
// order: scanning stops at the first waiter that still cannot be granted,
// except that compatible waiters behind an incompatible one are not skipped
// (strict FIFO avoids starvation of writers).
func (lm *LockManager) wake(ls *lockState) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		cur := ls.granted[w.tx]
		want := sup(cur, w.mode)
		ok := true
		for other, m := range ls.granted {
			if other != w.tx && !compatible(m, want) {
				ok = false
				break
			}
		}
		if !ok {
			return
		}
		ls.queue = ls.queue[1:]
		ls.granted[w.tx] = want
		lm.noteHeld(w.tx, ls.name)
		delete(lm.waiting, w.tx)
		w.ready <- nil
	}
}

// HeldModes returns a snapshot of the modes tx currently holds, for tests.
func (lm *LockManager) HeldModes(tx uint64) map[string]Mode {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	out := make(map[string]Mode)
	for name := range lm.held[tx] {
		if ls := lm.locks[name]; ls != nil {
			if m, ok := ls.granted[tx]; ok {
				out[name] = m
			}
		}
	}
	return out
}
