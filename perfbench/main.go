// Command perfbench is the repository's benchmark. It runs one named
// workload against the engine for a measured window and prints every
// metric with its unit, then one JSON result line:
//
//	go run . --workload smallbank-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced window. --trace 1
// runs an untraced window and then a traced one, writes the traced spans to
// a JSON file under --out, and reports the per-layer metrics. Every run also
// checks the workload's outputs, replays a short recorded pass through the
// serializability checker, and exits non-zero if any check fails. See
// README.md for what each workload loads and each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ssi/internal/sercheck"
)

// tracedTxnsPerClient is how many transactions per client the traced window
// aims to sample; the sampling interval follows from the untraced rate.
const tracedTxnsPerClient = 4000

// sercheckTxns is the length, per client, of the recorded pass whose
// multiversion serialization graph must be acyclic.
const sercheckTxns = 300

// sercheckKeys sizes kvscan-large's table for the recorded pass.
const sercheckKeys = 4 * longScan

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for WAL data and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := config{
		params: params{seed: *seed, kvKeys: 1_000_000, out: *out},
		warmup: time.Second,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	if !res.Correct {
		for _, p := range res.problems {
			fmt.Fprintln(stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	return 0
}

// config is one invocation.
type config struct {
	params
	warmup time.Duration // runs before each window so lazy set-up and caches settle
	window time.Duration
	trace  bool
}

// runRecord identifies the box and settings a result came from, so figures
// from different machines are never compared silently.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Clients    int     `json:"clients"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	WALFS      string  `json:"wal_fs"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints. Its JSON form is the last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	record    runRecord
	context   []string // lines printed before the result, for a reader
	problems  []string // failed checks
	tracePath string
}

func runWorkload(w *workload, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	rec := runRecord{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace,
		Clients: nClients, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), WALFS: "none (in-memory)",
	}
	if w.durable {
		rec.WALFS = fsType(cfg.out)
	}
	res := &result{Correct: true, record: rec, Metrics: map[string]value{}}

	inst, setup, err := w.setup(cfg.params, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups := []float64{setup.Seconds()}
	if inst.age != nil {
		if err := inst.age(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	// The untraced window of a traced run is the base of trace.overhead_pct.
	// It carries empty trace buffers, so that both windows have the same heap:
	// with a smaller heap the garbage collector runs several times as often,
	// which would make tracing look faster than no tracing.
	untraced := 0
	if cfg.trace {
		untraced = -1
	}
	plain := measure(inst, cfg.warmup, cfg.window, untraced)
	var traced window
	if cfg.trace {
		perClient := float64(plain.tally.started) / nClients
		traced = measure(inst, cfg.warmup, cfg.window, int(perClient/tracedTxnsPerClient)+1)
	}
	if err := inst.finish(true); err != nil {
		res.problem("output check: %v", err)
	}
	// Attempted and failed count every logical transaction the clients ran,
	// warm-up included, so no failure escapes them.
	for _, c := range inst.clients {
		for _, b := range c.bad {
			res.problem("output check: %s", b)
		}
		res.Attempted += c.started
		res.Failed += c.failed
		for _, e := range c.errSeen {
			res.context = append(res.context, "failed transaction: "+e)
		}
	}
	res.context = append(res.context, fmt.Sprintf("failed_frac %g (%d of %d logical transactions)",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted))
	inst = nil
	runtime.GC()

	var durable *window
	var replay time.Duration
	if w.durable {
		durable, replay, err = durablePass(cfg.params)
		if err != nil {
			res.problem("durable pass: %v", err)
		} else {
			res.context = append(res.context, durable.durableLine())
		}
	}
	if err := serializabilityPass(w, cfg.params); err != nil {
		res.problem("serializability: %v", err)
	}
	for k := 1; k < w.setups; k++ {
		runtime.GC()
		inst, d, err := w.setup(cfg.params, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := inst.finish(false); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	if cfg.trace {
		res.tracePath = filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
		if err := writeTrace(res.tracePath, rec, traced.spans); err != nil {
			return nil, err
		}
		for name, v := range layerMetrics(&plain, &traced, durable, replay) {
			res.Metrics[name] = value{v, unitOf(perLayer, name)}
		}
	} else {
		for name, v := range endToEndMetrics(&plain, median(setups)) {
			res.Metrics[name] = value{v, unitOf(endToEnd, name)}
		}
	}
	res.context = append(res.context, plain.contextLines()...)
	return res, nil
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// serializabilityPass drives a short fixed-length run of the workload on a
// fresh, small database that records its history, and requires the
// multiversion serialization graph to be acyclic.
func serializabilityPass(w *workload, p params) error {
	h := sercheck.NewHistory()
	p.kvKeys = sercheckKeys
	inst, _, err := w.setup(p, h)
	if err != nil {
		return err
	}
	drive(inst, sercheckTxns)
	if err := inst.finish(false); err != nil {
		return err
	}
	for _, c := range inst.clients {
		if c.failed > 0 {
			return fmt.Errorf("recorded pass: %d transactions failed: %v", c.failed, c.errSeen)
		}
		if len(c.bad) > 0 {
			return fmt.Errorf("recorded pass: output check: %v", c.bad)
		}
	}
	if ok, cycle := h.Serializable(); !ok {
		return fmt.Errorf("MVSG cycle through transactions %v", cycle)
	}
	return nil
}

func unitOf(ms []metric, name string) string {
	for _, m := range ms {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("perfbench: metric missing from catalogue: " + name)
}

// endToEndMetrics are the user-visible figures of an untraced window.
func endToEndMetrics(w *window, setupS float64) map[string]float64 {
	t := &w.tally
	return map[string]float64{
		"commits_per_s":     w.commits / w.secs,
		"cpu_us_per_commit": ratio(float64(w.b.cpu-w.a.cpu)/1e3, w.commits),
		"rw_txn_p50_us":     t.rwLat.quantileUS(0.5),
		"rw_txn_p90_us":     t.rwLat.quantileUS(0.9),
		"ro_txn_p50_us":     t.roLat.quantileUS(0.5),
		"ro_txn_p90_us":     t.roLat.quantileUS(0.9),
		"rss_peak_mb":       w.b.maxRSS,
		"setup_s":           setupS,
	}
}

// layerMetrics are the per-layer figures of the traced window t, with the
// untraced window u as the base of the tracing overhead. The WAL figures
// come from the durable pass d, or from t when there is none.
func layerMetrics(u, t, d *window, replay time.Duration) map[string]float64 {
	s := summarize(t.spans)
	a, b := t.a, t.b
	da, db := a.db, b.db
	if d == nil {
		d = t
	}
	wa, wb := d.a.db, d.b.db
	commits := t.commits
	att := float64(t.tally.attempts())
	out := t.tally.outcomes
	roBegins := float64(db.ROBegins - da.ROBegins)
	admitted := float64(b.adm.Admitted - a.adm.Admitted)
	refused := float64(b.adm.RefusedFull-a.adm.RefusedFull) + float64(b.adm.RefusedWait-a.adm.RefusedWait) +
		float64(b.srv.Refused-a.srv.Refused)
	pruned := float64(db.VersionsPruned - da.VersionsPruned)
	waits := float64(db.LockWaits - da.LockWaits)
	untracedCPS := u.commits / u.secs
	return map[string]float64{
		"ssidb.begin_us.p50":    s.p("ssidb.begin", 0.5),
		"ssidb.get_us.p50":      s.p("ssidb.get", 0.5),
		"ssidb.get_us.p99":      s.p("ssidb.get", 0.99),
		"ssidb.put_us.p50":      s.p("ssidb.put", 0.5),
		"ssidb.put_us.p99":      s.p("ssidb.put", 0.99),
		"ssidb.commit_us.p50":   s.p("ssidb.commit", 0.5),
		"ssidb.commit_us.p99":   s.p("ssidb.commit", 0.99),
		"ssidb.abort_us.p50":    s.p("ssidb.abort", 0.5),
		"ssidb.scan_us.p50":     s.p("ssidb.scan", 0.5),
		"ssidb.scan_us.p99":     s.p("ssidb.scan", 0.99),
		"ssidb.scan_ns_per_row": ratio(s.total("ssidb.scan")*1e3, float64(s.rows["ssidb.scan"])),

		"bench.self_us_per_txn":    ratio(s.self["txn"]+s.self["attempt"], float64(s.txnCount)),
		"bench.backoff_us_per_txn": ratio(s.total("backoff"), float64(s.txnCount)),

		"core.commit_ratio":       ratio(commits, att),
		"core.unsafe_per_attempt": ratio(float64(out[outUnsafe]), att),
		"core.active_txns":        float64(db.ActiveTxns),
		"core.suspended_txns":     float64(db.SuspendedTxns),

		"lock.waits_per_commit":      ratio(waits, commits),
		"lock.spin_grant_ratio":      ratio(float64(db.LockSpinGrants-da.LockSpinGrants), waits),
		"lock.parks_per_commit":      ratio(float64(db.LockParks-da.LockParks), commits),
		"lock.wait_us_per_commit":    ratio(float64(db.LockWaitTime-da.LockWaitTime)/1e3, commits),
		"lock.deadlocks_per_attempt": ratio(float64(out[outDeadlock]), att),
		"lock.timeouts_per_attempt":  ratio(float64(out[outTimeout]), att),
		"lock.locked_keys":           float64(db.LockedKeys),
		"lock.owners":                float64(db.LockOwners),

		"mvcc.fcw_per_attempt":              ratio(float64(out[outFCW]), att),
		"mvcc.rows_scanned_per_s":           float64(t.tally.rows) / t.secs,
		"mvcc.dead_versions":                float64(b.dead),
		"mvcc.versions_pruned_per_commit":   ratio(pruned, commits),
		"mvcc.vacuum_runs":                  float64(db.VacuumRuns - da.VacuumRuns),
		"mvcc.vacuum_key_visits_per_pruned": ratio(float64(b.visits-a.visits), pruned),

		"ro.safe_promotion_ratio":    ratio(float64(db.ROSafePromotions-da.ROSafePromotions), roBegins),
		"ro.siread_skips_per_ro_txn": ratio(float64(db.ROSIReadSkips-da.ROSIReadSkips), roBegins),

		"wal.appends_per_commit": ratio(float64(wb.WALAppends-wa.WALAppends), d.commits),
		"wal.fsyncs_per_commit":  ratio(float64(wb.Fsyncs-wa.Fsyncs), d.commits),
		"wal.avg_batch_size":     ratio(float64(wb.WALAppends-wa.WALAppends), float64(wb.GroupCommitBatches-wa.GroupCommitBatches)),
		"wal.checkpoints":        float64(wb.Checkpoints - wa.Checkpoints),
		"wal.replay_s":           replay.Seconds(),

		"server.begin_rtt_us.p50":          s.p("server.begin_rtt", 0.5),
		"server.op_rtt_us.p50":             s.p("server.op_rtt", 0.5),
		"server.op_rtt_us.p99":             s.p("server.op_rtt", 0.99),
		"server.commit_rtt_us.p50":         s.p("server.commit_rtt", 0.5),
		"server.commit_rtt_us.p99":         s.p("server.commit_rtt", 0.99),
		"server.abort_rtt_us.p50":          s.p("server.abort_rtt", 0.5),
		"server.admission_wait_us_per_txn": ratio(float64(b.adm.QueueWaitTime-a.adm.QueueWaitTime)/1e3, admitted),
		"server.refused_per_txn":           ratio(refused, admitted+refused),

		"go.alloc_bytes_per_commit": ratio(b.rtUint(0)-a.rtUint(0), commits),
		"go.allocs_per_commit":      ratio(b.rtUint(1)-a.rtUint(1), commits),
		"go.gc_cycles_per_s":        (b.rtUint(2) - a.rtUint(2)) / t.secs,
		"go.sched_latency_us.p99":   schedP99(a, b),

		"trace.overhead_pct": ratio(untracedCPS-t.commits/t.secs, untracedCPS) * 100,
	}
}

// contextLines are figures printed for a reader but not gated: the p99
// tails with their sample counts and the abort mix.
func (w *window) contextLines() []string {
	t := &w.tally
	out := t.outcomes
	return []string{
		fmt.Sprintf("rw_txn_p99_us %.1f (n=%d)", t.rwLat.quantileUS(0.99), t.rwLat.count()),
		fmt.Sprintf("ro_txn_p99_us %.1f (n=%d)", t.roLat.quantileUS(0.99), t.roLat.count()),
		fmt.Sprintf("attempts %d: commit %d rollback %d unsafe %d fcw %d deadlock %d lock_timeout %d other %d",
			t.attempts(), out[outCommit], out[outRollback], out[outUnsafe], out[outFCW], out[outDeadlock], out[outTimeout], out[outOther]),
	}
}

// durableLine summarizes the durable pass for a reader; its figures depend
// on the WAL device and are not gated.
func (w *window) durableLine() string {
	rw := w.tally.rwLat
	return fmt.Sprintf("durable pass: %.0f commits in %.2fs (%.0f/s), rw_txn p50 %.0f us p90 %.0f us, %.2f fsyncs per commit",
		w.commits, w.secs, w.commits/w.secs, rw.quantileUS(0.5), rw.quantileUS(0.9),
		ratio(float64(w.b.db.Fsyncs-w.a.db.Fsyncs), w.commits))
}

func (r *result) print(w io.Writer) {
	recJSON, _ := json.Marshal(r.record) // plain struct: cannot fail
	fmt.Fprintf(w, "record %s\n", recJSON)
	for _, line := range r.context {
		fmt.Fprintln(w, "context", line)
	}
	if r.tracePath != "" {
		fmt.Fprintln(w, "trace", r.tracePath)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "metric %-34s %14.4f %s\n", name, v.Value, v.Unit)
	}
	line, _ := json.Marshal(r) // only finite floats: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}
