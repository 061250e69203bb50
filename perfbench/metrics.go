package main

import (
	"math"
	"math/bits"
	"regexp"
	"sort"
	"time"
)

// metric is one named figure the benchmark reports. The two catalogues
// below are the single source of the names BENCHMARK.json lists; a test
// keeps the two in step.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better,omitempty"`
}

// endToEnd are the figures a user of the database sees, reported from the
// untraced window of every run (--trace 0).
var endToEnd = []metric{
	{"commits_per_s", "1/s", "higher"},
	{"cpu_us_per_commit", "us", "lower"},
	{"rw_txn_p50_us", "us", "lower"},
	{"rw_txn_p90_us", "us", "lower"},
	{"ro_txn_p50_us", "us", "lower"},
	{"ro_txn_p90_us", "us", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the figures of single layers, reported by the traced run
// (--trace 1). A layer a workload does not reach reads 0.
var perLayer = []metric{
	// ssidb: spans around the public in-process calls.
	{"ssidb.begin_us.p50", "us", "lower"},
	{"ssidb.get_us.p50", "us", "lower"},
	{"ssidb.get_us.p99", "us", "lower"},
	{"ssidb.put_us.p50", "us", "lower"},
	{"ssidb.put_us.p99", "us", "lower"},
	{"ssidb.commit_us.p50", "us", "lower"},
	{"ssidb.commit_us.p99", "us", "lower"},
	{"ssidb.abort_us.p50", "us", "lower"},
	{"ssidb.scan_us.p50", "us", "lower"},
	{"ssidb.scan_us.p99", "us", "lower"},
	{"ssidb.scan_ns_per_row", "ns", "lower"},
	// bench: what a transaction spends outside the engine.
	{"bench.self_us_per_txn", "us", "lower"},
	{"bench.backoff_us_per_txn", "us", "lower"},
	// core: conflict detection outcomes and retained conflict state.
	{"core.commit_ratio", "ratio", "higher"},
	{"core.unsafe_per_attempt", "ratio", "lower"},
	{"core.active_txns", "count", "lower"},
	{"core.suspended_txns", "count", "lower"},
	// lock: the lock table.
	{"lock.waits_per_commit", "count", "lower"},
	{"lock.spin_grant_ratio", "ratio", "higher"},
	{"lock.parks_per_commit", "count", "lower"},
	{"lock.wait_us_per_commit", "us", "lower"},
	{"lock.deadlocks_per_attempt", "ratio", "lower"},
	{"lock.timeouts_per_attempt", "ratio", "lower"},
	{"lock.locked_keys", "count", "lower"},
	{"lock.owners", "count", "lower"},
	// mvcc: versioned storage, scans and vacuum.
	{"mvcc.fcw_per_attempt", "ratio", "lower"},
	{"mvcc.rows_scanned_per_s", "1/s", "higher"},
	{"mvcc.dead_versions", "count", "lower"},
	{"mvcc.versions_pruned_per_commit", "count", "higher"},
	{"mvcc.vacuum_runs", "count", "lower"},
	{"mvcc.vacuum_key_visits_per_pruned", "ratio", "lower"},
	// ro: the declared-read-only path.
	{"ro.safe_promotion_ratio", "ratio", "higher"},
	{"ro.siread_skips_per_ro_txn", "count", "higher"},
	// wal: group commit and recovery.
	{"wal.appends_per_commit", "count", "lower"},
	{"wal.fsyncs_per_commit", "count", "lower"},
	{"wal.avg_batch_size", "count", "higher"},
	{"wal.checkpoints", "count", "lower"},
	{"wal.replay_s", "s", "lower"},
	// server: client-side round trips and server counters.
	{"server.begin_rtt_us.p50", "us", "lower"},
	{"server.op_rtt_us.p50", "us", "lower"},
	{"server.op_rtt_us.p99", "us", "lower"},
	{"server.commit_rtt_us.p50", "us", "lower"},
	{"server.commit_rtt_us.p99", "us", "lower"},
	{"server.abort_rtt_us.p50", "us", "lower"},
	{"server.admission_wait_us_per_txn", "us", "lower"},
	{"server.refused_per_txn", "ratio", "lower"},
	// go: the runtime.
	{"go.alloc_bytes_per_commit", "bytes", "lower"},
	{"go.allocs_per_commit", "count", "lower"},
	{"go.gc_cycles_per_s", "1/s", "lower"},
	{"go.sched_latency_us.p99", "us", "lower"},
	// trace: the cost of the traced run itself.
	{"trace.overhead_pct", "%", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts xs in place and returns its middle value.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 0.5)
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hist is a log-linear histogram of nanosecond durations: values below
// histSub have a bucket each, and every power of two above splits into
// histSub buckets, so a bucket is at most 1/histSub of its values wide. Its
// memory is fixed, so the benchmark's own footprint does not grow with the
// throughput it measures.
type hist struct {
	n      int64
	counts [(64 - histBits) * histSub]int64
}

const (
	histBits = 7
	histSub  = 1 << histBits
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histBits - 1
	return (e+1)*histSub + int(v>>e) - histSub
}

// histEdges returns bucket b's lower edge and width.
func histEdges(b int) (lo, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	e := b/histSub - 1
	m := b%histSub + histSub
	return float64(uint64(m) << e), float64(uint64(1) << e)
}

func (h *hist) add(d time.Duration) {
	h.n++
	h.counts[histBucket(uint64(max(d, 0)))]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantileUS returns the q-quantile in µs, interpolating by rank inside the
// bucket it falls in; 0 for an empty histogram.
func (h *hist) quantileUS(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var below float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < below+float64(c) {
			lo, width := histEdges(b)
			return (lo + width*(rank-below+0.5)/float64(c)) / 1e3
		}
		below += float64(c)
	}
	return 0 // unreachable: rank < n
}

func (h *hist) count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}
