package pdq

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// parker is the one answer to "how does a goroutine with nothing to do
// sleep, and who wakes it": an eventcount — a published-waiter count in
// front of a mutex and condition variable — so that a waker with nobody
// to wake pays one atomic load. Consumers park on one (a standalone Queue
// owns it; the member queues of a Mux share their mux's), and so do
// EnqueueWait producers waiting for capacity (Queue.space). The
// no-lost-wake argument is docs/INVARIANTS.md § Wake protocol.
type parker struct {
	mu           sync.Mutex
	cond         sync.Cond
	waits        atomic.Uint64 // parks that actually slept
	timerWakeups atomic.Uint64 // maturity timers that fired into a park
	partial      atomic.Int32  // published waiters serving only part of what parks here (see Mux.partial)

	onTimer, onBackstop func() // timerWake and wakeAll bound once: a method value per timed park is an allocation
	_                   cpad
	//pdq:isolated
	gen atomic.Uint64 // events no shard owns: barrier traffic, close, cancellation, timers
	_   cpad
	//pdq:isolated
	waiters atomic.Int32 // published sleepers; read by every waker
	_       cpad
}

func newParker() *parker {
	p := new(parker)
	p.cond.L = &p.mu
	p.onTimer, p.onBackstop = p.timerWake, p.wakeAll
	return p
}

// wake wakes up to n sleepers for an event the caller has already made
// visible (a generation bump, a freed slot). Exact counts are safe because
// every sleeper can serve every event — unless a partial waiter is
// published, which could swallow a Signal meant for work it never looks
// at; then everyone wakes.
func (p *parker) wake(n int) {
	w := int(p.waiters.Load())
	if w == 0 {
		return
	}
	p.mu.Lock()
	if n >= w || p.partial.Load() > 0 {
		p.cond.Broadcast()
	} else {
		for ; n > 0; n-- {
			p.cond.Signal()
		}
	}
	p.mu.Unlock()
}

// wakeAll publishes an event of its own — one that belongs to no shard's
// generation — and wakes every sleeper.
func (p *parker) wakeAll() {
	p.gen.Add(1)
	p.wake(math.MaxInt)
}

func (p *parker) timerWake() {
	p.timerWakeups.Add(1)
	p.wakeAll()
}

// park sleeps until woken, unless ctx is done or still() — the caller's
// "nothing has happened since I looked" — is already false once the caller
// is published as a waiter; publication comes first, so a waker that then
// reads no waiters is one whose event this re-check sees. It returns after
// one sleep at most; callers loop. backstop bounds the sleep by
// dispatchBackoff (for a caller whose look was inconclusive and may have
// left no event behind); wakeAt, unless math.MaxInt64, bounds it by that
// instant of the scheduling clock — an overdue one, whose entry must be
// blocked on something else, degrades to the backoff cadence rather than
// re-firing at once. Timers are armed under mu, which the sleeper holds
// until Wait releases it, so none can fire into the pre-park window.
func (p *parker) park(ctx context.Context, still func() bool, backstop bool, wakeAt int64) {
	p.mu.Lock()
	p.waiters.Add(1)
	if ctx.Err() == nil && still() {
		p.waits.Add(1)
		var t *time.Timer
		if wakeAt != math.MaxInt64 {
			d := time.Duration(wakeAt - nowNanos())
			if d <= 0 || backstop && d > dispatchBackoff {
				d = dispatchBackoff
			}
			t = time.AfterFunc(d, p.onTimer)
		} else if backstop {
			t = time.AfterFunc(dispatchBackoff, p.onBackstop)
		}
		p.cond.Wait()
		if t != nil {
			t.Stop()
		}
	}
	p.waiters.Add(-1)
	p.mu.Unlock()
}
