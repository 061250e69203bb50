package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ssi/internal/harness"
	"ssi/ssidb"
)

// retryBudget is the number of attempts after which a logical transaction
// counts as failed.
const retryBudget = 100

// Attempt outcome classes. Rollback is SmallBank's insufficient-funds
// outcome, a completed transaction; other is any error outside the abort
// classes, which fails the logical transaction at once.
const (
	outCommit = iota
	outRollback
	outUnsafe
	outFCW
	outDeadlock
	outTimeout
	outOther
	nOutcomes
)

func classify(err error) int {
	switch {
	case err == nil:
		return outCommit
	case errors.Is(err, harness.ErrRollback):
		return outRollback
	case errors.Is(err, ssidb.ErrUnsafe):
		return outUnsafe
	case errors.Is(err, ssidb.ErrWriteConflict):
		return outFCW
	case errors.Is(err, ssidb.ErrDeadlock):
		return outDeadlock
	case errors.Is(err, ssidb.ErrLockTimeout):
		return outTimeout
	}
	return outOther
}

// tally is what clients count over the measured window.
type tally struct {
	started, failed int64
	outcomes        [nOutcomes]int64 // per attempt
	rows            int64            // rows returned by scans
	rwLat, roLat    *hist            // completed logical transactions
}

func (t *tally) add(o *tally) {
	t.started += o.started
	t.failed += o.failed
	for i := range t.outcomes {
		t.outcomes[i] += o.outcomes[i]
	}
	t.rows += o.rows
	t.rwLat = mergeHist(t.rwLat, o.rwLat)
	t.roLat = mergeHist(t.roLat, o.roLat)
}

// mergeHist adds o into h, allocating h on first use.
func mergeHist(h, o *hist) *hist {
	if o == nil {
		return h
	}
	if h == nil {
		h = new(hist)
	}
	h.merge(o)
	return h
}

func (t *tally) attempts() int64 {
	var n int64
	for _, c := range t.outcomes {
		n += c
	}
	return n
}

// client is one closed-loop session: it runs logical transaction i, waits
// for its outcome, then runs i+1. Its inputs were generated before any
// window, indexed by i, so a retried attempt replays the same inputs.
type client struct {
	id       int
	next     int                                      // index of the next logical transaction
	readOnly func(i int) bool                         // declared read-only?
	attempt  func(c *client, i int, sp spanner) error // one attempt of transaction i
	jitter   *rand.Rand                               // backoff jitter only

	rows int64 // rows the current transaction's scans returned
	win  tally // transactions that ended while the window was open

	// Every logical transaction the client ran, in a window or not, and
	// the first errors of those that failed.
	started, failed int64
	errSeen         []string

	bad []string // correctness violations seen by the attempt code
	tr  *tracer
}

// violation records a failed output check; the run then reports
// correct=false.
func (c *client) violation(format string, args ...any) {
	if len(c.bad) < 8 {
		c.bad = append(c.bad, fmt.Sprintf(format, args...))
	}
}

// run loops until stop (or, with end ≥ 0, until transaction end). Every
// transaction counts toward c.started and c.failed; one that ends while
// counting is set also counts into c.win.
func (c *client) run(stop, counting *atomic.Bool, end int) {
	c.win = tally{}
	for !stop.Load() && (end < 0 || c.next < end) {
		i := c.next
		c.next++
		var sp spanner
		root := int32(-1)
		if c.tr.sample(i) {
			sp = spanner{tr: c.tr, parent: -1, txn: uint64(c.id)<<40 | uint64(i)}
			root = sp.start("txn")
			sp = sp.child(root)
		}
		var outcomes [nOutcomes]int64
		c.rows = 0
		start := time.Now()
		var err error
		for a := 0; ; a++ {
			id := sp.start("attempt")
			err = c.attempt(c, i, sp.child(id))
			sp.end(id)
			o := classify(err)
			outcomes[o]++
			if o <= outRollback || o == outOther || a+1 == retryBudget {
				break
			}
			if a > 0 {
				// ssidb.RunRetry's policy: full jitter over a ceiling of
				// 8µs doubling per consecutive abort, capped at 1<<7.
				ceil := time.Duration(1<<min(a, 7)) * 8 * time.Microsecond
				id := sp.start("backoff")
				time.Sleep(time.Duration(c.jitter.Int63n(int64(ceil))))
				sp.end(id)
			}
		}
		lat := time.Since(start)
		sp.end(root)
		failed := classify(err) > outRollback
		c.started++
		if failed {
			c.failed++
			if len(c.errSeen) < 4 {
				c.errSeen = append(c.errSeen, err.Error())
			}
		}
		if !counting.Load() {
			continue
		}
		t := &c.win
		t.started++
		if failed {
			t.failed++
		} else {
			h := &t.rwLat
			if c.readOnly(i) {
				h = &t.roLat
			}
			if *h == nil {
				*h = new(hist)
			}
			(*h).add(lat)
		}
		for o, n := range outcomes {
			t.outcomes[o] += n
		}
		t.rows += c.rows
	}
}

// window is one measured interval: counter snapshots at both edges and the
// clients' tallies.
type window struct {
	a, b    snapshot
	secs    float64
	tally   tally // all clients
	spans   []Span
	commits float64
}

// measure runs every client for warmup+secs and returns the window. With
// traceEvery > 0 each client samples every traceEvery-th transaction; with
// traceEvery < 0 each client gets a trace buffer but samples nothing, so the
// heap, and with it the garbage collector's pace, matches a traced window.
func measure(inst *instance, warmup, secs time.Duration, traceEvery int) window {
	var stop, counting atomic.Bool
	var wg sync.WaitGroup
	epoch := time.Now()
	for _, c := range inst.clients {
		c.tr = nil
		if traceEvery != 0 {
			c.tr = newTracer(epoch, traceEvery)
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(&stop, &counting, -1)
		}(c)
	}
	time.Sleep(warmup)
	w := window{a: inst.snap()}
	counting.Store(true)
	time.Sleep(secs)
	counting.Store(false)
	w.b = inst.snap()
	stop.Store(true)
	wg.Wait()

	w.secs = w.b.at.Sub(w.a.at).Seconds()
	var trs []*tracer
	for _, c := range inst.clients {
		w.tally.add(&c.win)
		if c.tr != nil {
			trs = append(trs, c.tr)
		}
	}
	w.commits = float64(w.tally.outcomes[outCommit])
	if traceEvery > 0 {
		w.spans = mergeSpans(trs)
	}
	return w
}

// drive runs each client for exactly n logical transactions, concurrently,
// counting all of them; it is the fixed-length pass the serializability
// check records.
func drive(inst *instance, n int) {
	var stop, counting atomic.Bool
	counting.Store(true)
	var wg sync.WaitGroup
	for _, c := range inst.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(&stop, &counting, c.next+n)
		}(c)
	}
	wg.Wait()
}
