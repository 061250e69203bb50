// Package harness drives the performance experiments of thesis Chapter 6:
// it runs a workload at a given multiprogramming level (MPL) for a fixed
// duration, measures committed transactions per second and their latency
// distribution, and breaks aborts down into the classes the paper plots —
// deadlocks, First-Committer-Wins update conflicts, and Serializable SI
// "unsafe" errors (Figure 6.1(b) and friends), with 95% confidence
// intervals over repeated trials. Run is the one measurement loop every
// benchmark entry point shares.
package harness

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssi/ssidb"
)

// TxnFunc executes one application transaction (including commit) and
// returns its outcome. The supplied rand is private to the calling worker.
type TxnFunc func(r *rand.Rand) error

// Counts is the per-class outcome tally of one run. Add is safe for
// concurrent use.
type Counts struct {
	Commits   uint64
	Deadlocks uint64 // lock-wait cycles (mostly S2PL)
	Conflicts uint64 // First-Committer-Wins update conflicts
	Unsafe    uint64 // Serializable SI dangerous-structure aborts
	Timeouts  uint64 // lock waits abandoned via Options.LockWaitTimeout
	Rollbacks uint64 // application-initiated aborts (e.g. TPC-C's 1%)
	Other     uint64
}

// slot returns the counter err is tallied under; wrapped errors classify
// by errors.Is.
func (c *Counts) slot(err error) *uint64 {
	switch {
	case err == nil:
		return &c.Commits
	case errors.Is(err, ssidb.ErrDeadlock):
		return &c.Deadlocks
	case errors.Is(err, ssidb.ErrWriteConflict):
		return &c.Conflicts
	case errors.Is(err, ssidb.ErrUnsafe):
		return &c.Unsafe
	case errors.Is(err, ssidb.ErrLockTimeout):
		return &c.Timeouts
	case errors.Is(err, ErrRollback):
		return &c.Rollbacks
	default:
		return &c.Other
	}
}

// Add tallies one transaction outcome.
func (c *Counts) Add(err error) { atomic.AddUint64(c.slot(err), 1) }

func (c *Counts) merge(o Counts) {
	c.Commits += o.Commits
	c.Deadlocks += o.Deadlocks
	c.Conflicts += o.Conflicts
	c.Unsafe += o.Unsafe
	c.Timeouts += o.Timeouts
	c.Rollbacks += o.Rollbacks
	c.Other += o.Other
}

// Aborts is the total number of aborted transactions of all classes.
func (c Counts) Aborts() uint64 {
	return c.Deadlocks + c.Conflicts + c.Unsafe + c.Timeouts + c.Rollbacks + c.Other
}

// ErrRollback marks an application-initiated rollback (counted separately
// from concurrency-control aborts, like TPC-C's intentional 1%).
var ErrRollback = errors.New("harness: application rollback")

// histSubBits sets the histogram resolution: each power of two is split
// into 2^histSubBits linear buckets, so a bucket is at most 1/16 (6.25%)
// of its values wide.
const histSubBits = 4

// Histogram is a fixed log-bucket latency histogram: recording is an index
// computation and an increment, merging is bucket-wise addition, and the
// memory is fixed whatever the sample count.
type Histogram struct {
	buckets [(64 - histSubBits + 1) << histSubBits]uint64
	n       uint64
	sum     time.Duration
	max     time.Duration
}

func bucketOf(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - 1
	return (e-histSubBits+1)<<histSubBits | int(v>>(e-histSubBits)&(1<<histSubBits-1))
}

// bucketLow is the smallest value bucket i holds.
func bucketLow(i int) uint64 {
	if i < 1<<histSubBits {
		return uint64(i)
	}
	e := i>>histSubBits + histSubBits - 1
	return (1<<histSubBits | uint64(i&(1<<histSubBits-1))) << (e - histSubBits)
}

// Record adds one latency sample.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(uint64(d))]++
	h.n++
	h.sum += d
	h.max = max(h.max, d)
}

// Merge adds o's samples to h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

// Count is the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Mean is the exact mean of the samples (0 with none).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Quantile returns the q-quantile (0 < q ≤ 1) as the upper edge of the
// bucket holding it, capped at the exact maximum: a conservative estimate
// at most one bucket width high. It is 0 with no samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = max(rank, 1)
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			return min(time.Duration(bucketLow(i+1)-1), h.max)
		}
	}
	return h.max
}

// Result is one measured cell: a workload at one isolation level and MPL.
type Result struct {
	Isolation ssidb.Isolation
	MPL       int
	Elapsed   time.Duration
	Counts
	// Latency is the distribution of committed transactions' latencies.
	Latency Histogram
	// Background and BackgroundLatency tally Options.Background's
	// transactions the same way; they do not count toward TPS.
	Background        Counts
	BackgroundLatency Histogram
	// Err is the first error the run could not classify (counted in
	// Other), or nil.
	Err error
	// TPS is committed transactions per second.
	TPS float64
	// TPSCI95 is the half-width of the 95% confidence interval over trials
	// (0 with a single trial).
	TPSCI95 float64
}

// ErrRate returns aborts of the given class per committed transaction.
func (r Result) ErrRate(class string) float64 {
	if r.Commits == 0 {
		return 0
	}
	var n uint64
	switch class {
	case "deadlock":
		n = r.Deadlocks
	case "conflict":
		n = r.Conflicts
	case "unsafe":
		n = r.Unsafe
	case "rollback":
		n = r.Rollbacks
	default:
		n = r.Other
	}
	return float64(n) / float64(r.Commits)
}

// Options configures a measurement.
type Options struct {
	MPL      int
	Duration time.Duration
	Warmup   time.Duration
	Trials   int // default 1
	Seed     int64
	// OnMeasureStart, if set, runs once per trial at the instant the
	// measurement window opens (after warmup). Callers use it to snapshot
	// cumulative engine counters so they can report measured-window deltas
	// instead of including warmup traffic.
	OnMeasureStart func()
	// Setup, if set, is called for each worker before it starts (once per
	// trial) and returns the TxnFunc that worker runs in place of Run's fn.
	// The network client uses it to give each worker its own connection.
	Setup func(worker int) TxnFunc
	// Background, if set, runs back-to-back on one extra goroutine beside
	// the MPL workers (a long scanner against point writers, say). Its
	// outcomes land in Result.Background.
	Background TxnFunc
}

// Run measures fn at the configured MPL. Each of the MPL workers loops,
// executing transactions back-to-back with no think time, exactly as the
// paper's db_perf setup (§6.1). Aborted transactions are counted and the
// worker moves on (the retry, if any, is the workload's next iteration).
// A transaction belongs to the window it started in: one begun during
// warmup is not counted, and one still running when the window closes is.
func Run(fn TxnFunc, opts Options) Result {
	if opts.MPL <= 0 {
		opts.MPL = 1
	}
	if opts.Trials <= 0 {
		opts.Trials = 1
	}
	var tpsSamples []float64
	total := Result{MPL: opts.MPL}
	for trial := 0; trial < opts.Trials; trial++ {
		res := runOnce(fn, opts, int64(trial))
		tpsSamples = append(tpsSamples, float64(res.Commits)/res.Elapsed.Seconds())
		total.Counts.merge(res.Counts)
		total.Latency.Merge(&res.Latency)
		total.Background.merge(res.Background)
		total.BackgroundLatency.Merge(&res.BackgroundLatency)
		total.Elapsed += res.Elapsed
		if total.Err == nil {
			total.Err = res.Err
		}
	}
	total.TPS = mean(tpsSamples)
	total.TPSCI95 = ci95(tpsSamples)
	return total
}

// tally is one goroutine's private share of a trial.
type tally struct {
	counts  Counts
	latency Histogram
	err     error
	_       [64]byte // keeps neighbouring goroutines' hot fields off one cache line
}

func runOnce(fn TxnFunc, opts Options, trial int64) Result {
	var measuring atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup

	loop := func(fn TxnFunc, r *rand.Rand, t *tally) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			in := measuring.Load()
			var start time.Time
			if in {
				start = time.Now()
			}
			err := fn(r)
			if !in {
				continue
			}
			p := t.counts.slot(err)
			*p++
			switch {
			case err == nil:
				t.latency.Record(time.Since(start))
			case p == &t.counts.Other && t.err == nil:
				t.err = err
			}
		}
	}

	measuring.Store(opts.Warmup == 0)
	if opts.Warmup == 0 && opts.OnMeasureStart != nil {
		opts.OnMeasureStart()
	}
	seed := opts.Seed + trial*1000003
	tallies := make([]tally, opts.MPL+1)
	for w := 0; w < opts.MPL; w++ {
		wfn := fn
		if opts.Setup != nil {
			wfn = opts.Setup(w)
		}
		wg.Add(1)
		go loop(wfn, rand.New(rand.NewSource(seed+int64(w)*7919+1)), &tallies[w])
	}
	bg := &tallies[opts.MPL]
	if opts.Background != nil {
		wg.Add(1)
		go loop(opts.Background, rand.New(rand.NewSource(seed-1)), bg)
	}
	if opts.Warmup > 0 {
		time.Sleep(opts.Warmup)
		measuring.Store(true)
		if opts.OnMeasureStart != nil {
			opts.OnMeasureStart()
		}
	}
	start := time.Now()
	time.Sleep(opts.Duration)
	measuring.Store(false)
	res := Result{Elapsed: time.Since(start)}
	close(stop)
	wg.Wait()
	for i := range tallies[:opts.MPL] {
		t := &tallies[i]
		res.Counts.merge(t.counts)
		res.Latency.Merge(&t.latency)
		if res.Err == nil {
			res.Err = t.err
		}
	}
	res.Background = bg.counts
	res.BackgroundLatency = bg.latency
	if res.Err == nil {
		res.Err = bg.err
	}
	return res
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ci95 returns the half-width of a 95% confidence interval assuming
// normally distributed samples, as the paper's graphs do (§6.1.1).
func ci95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := mean(xs)
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	sd := math.Sqrt(ss / float64(n-1))
	return 1.96 * sd / math.Sqrt(float64(n))
}

// DefaultIsolations is the paper's standard comparison set.
func DefaultIsolations() []ssidb.Isolation {
	return []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL}
}

// Describe summarises one result line for logs.
func Describe(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s mpl=%d tps=%.0f commits=%d", r.Isolation, r.MPL, r.TPS, r.Commits)
	if a := r.Aborts(); a > 0 {
		fmt.Fprintf(&b, " aborts[dl=%d cf=%d us=%d to=%d rb=%d other=%d]",
			r.Deadlocks, r.Conflicts, r.Unsafe, r.Timeouts, r.Rollbacks, r.Other)
	}
	return b.String()
}
