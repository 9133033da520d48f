// Quickstart for the PDQ library: a toy bank whose per-account operations
// are fine-grain handlers. A deposit names its account as the
// synchronization key; a transfer names BOTH accounts in its key set (the
// paper's "group of resources" the handler will touch), so operations on
// either account serialize in arrival order while disjoint account pairs
// run in parallel — no locks anywhere in the handlers. A sequential
// handler takes a consistent snapshot of every account, a nosync handler
// emits a progress heartbeat, and the bounded queue turns bursts into
// EnqueueWait backpressure instead of drops. The race detector will vouch
// for all of it.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sync/atomic"

	"pdq"
	"pdq/internal/sim"
)

const (
	accounts  = 64
	deposits  = 100_000
	transfers = 20_000
)

func main() {
	// Balances are plain ints: PDQ's key-set mutual exclusion is the only
	// thing protecting them.
	balances := make([]int64, accounts)
	var heartbeat atomic.Int64

	q := pdq.New(pdq.WithCapacity(4096))
	pool := pdq.Serve(context.Background(), q, runtime.GOMAXPROCS(0))
	ctx := context.Background()

	// The generic adapter keeps the payload typed end-to-end; Bind carries
	// it in the closure, never boxed through Message.Data.
	deposit := func(acct int) pdq.Handler[int64] {
		return func(amount int64) { balances[acct] += amount }
	}

	rng := sim.NewRand(42)
	for i := 0; i < deposits; i++ {
		acct := rng.Zipf(accounts, 1.1) // hot accounts contend, PDQ serializes them
		amount := int64(rng.Intn(100) + 1)
		// EnqueueWait blocks for a free slot when the bounded queue is
		// full — backpressure on the producer, never a dropped message.
		err := q.EnqueueWait(ctx, deposit(acct).Bind(amount), pdq.WithKey(pdq.Key(acct)))
		if err != nil {
			log.Fatal(err)
		}
		if i%25_000 == 24_999 {
			// A nosync heartbeat may run at any time, alongside anything.
			if err := q.EnqueueWait(ctx, func(any) { heartbeat.Add(1) }, pdq.NoSync()); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Transfers touch two accounts: the key set {from, to} makes the
	// handler mutually exclusive with anything using either account,
	// while transfers on disjoint pairs dispatch in parallel.
	for i := 0; i < transfers; i++ {
		from := rng.Zipf(accounts, 1.1)
		to := rng.Intn(accounts)
		if to == from {
			to = (to + 1) % accounts
		}
		amount := int64(rng.Intn(50) + 1)
		err := q.EnqueueWait(ctx, func(any) {
			balances[from] -= amount // no lock: the key set guarantees exclusion
			balances[to] += amount
		}, pdq.WithKeys(pdq.Key(from), pdq.Key(to)))
		if err != nil {
			log.Fatal(err)
		}
	}

	// A sequential handler runs in isolation: every earlier operation has
	// completed and no later one has started, so the snapshot is exact.
	var snapshot int64
	if err := q.EnqueueWait(ctx, func(any) {
		for _, b := range balances {
			snapshot += b
		}
	}, pdq.Sequential()); err != nil {
		log.Fatal(err)
	}

	q.Close()
	pool.Wait()

	var final int64
	for _, b := range balances {
		final += b
	}
	fmt.Printf("accounts: %d, deposits: %d, transfers: %d, heartbeats: %d\n",
		accounts, deposits, transfers, heartbeat.Load())
	fmt.Printf("sequential snapshot: %d (final total %d)\n", snapshot, final)
	fmt.Printf("queue stats: %v\n", q.Stats())
	if snapshot != final {
		log.Fatal("snapshot does not match final total — isolation broken")
	}
	fmt.Println("OK: key-set serialization, backpressure, and sequential isolation held")
}
