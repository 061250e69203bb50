package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ssi/internal/workload/kvmix"
	"ssi/ssidb"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "txn", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 25, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 12, End: 20, Parent: 1},  // grandchild
		{Name: "d", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "txn", Start: 200, End: 210, Parent: -1},
	}
	// txn: 100 - |[10,50] ∪ [90,100]| = 100 - 50; a: 20 - 8.
	want := []int64{50, 12, 25, 8, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	s := summarize(spans)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if s.txnCount != 2 || !near(s.self["txn"], 0.06) || !near(s.p("txn", 0.5), 0.055) {
		t.Fatalf("summary: txns %d, txn self %v µs, txn p50 %v µs", s.txnCount, s.self["txn"], s.p("txn", 0.5))
	}
}

func TestMergeSpansRebasesParents(t *testing.T) {
	a := &tracer{spans: []Span{{Parent: -1}, {Parent: 0}}}
	b := &tracer{spans: []Span{{Parent: -1}, {Parent: 0}, {Parent: 1}}}
	var parents []int32
	for _, sp := range mergeSpans([]*tracer{a, b}) {
		parents = append(parents, sp.Parent)
	}
	if want := []int32{-1, 0, -1, 2, 3}; !reflect.DeepEqual(parents, want) {
		t.Fatalf("parents = %v, want %v", parents, want)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: invalid name or unit", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: invalid name", w.name)
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metric
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; perfbench has %d", names, len(workloads))
	}
	var e2e []metric
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metric)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nwant %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nwant %v", bf.PerLayer, perLayer)
	}
}

// TestEveryWorkloadPrintsItsMetrics runs every workload briefly on a small
// table, traced and untraced, and checks that the checks pass and that the
// last output line carries exactly the metrics BENCHMARK.json lists.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			w := findWorkload(wl.Name)
			if w == nil {
				t.Fatalf("no workload %q", wl.Name)
			}
			cfg := config{
				params: params{seed: 7, kvKeys: 3 * longScan, out: t.TempDir()},
				warmup: 20 * time.Millisecond,
				window: 150 * time.Millisecond,
				trace:  traced,
			}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems %v",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			var buf bytes.Buffer
			res.print(&buf)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct   *bool                     `json:"correct"`
				Attempted *int64                    `json:"attempted"`
				Failed    *int64                    `json:"failed"`
				Metrics   map[string]map[string]any `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil {
				t.Fatalf("%s: last line %q: %v", wl.Name, lines[len(lines)-1], err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, traced, len(last.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := last.Metrics[m.Name]
				if !ok || v["unit"] != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %v, want unit %s", wl.Name, traced, m.Name, v, m.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(res.tracePath); err != nil {
					t.Errorf("%s: trace file: %v", wl.Name, err)
				}
			}
		}
	}
}

func TestKVValid(t *testing.T) {
	k := []byte{0, 0, 1, 2}
	for _, c := range []struct {
		v    string
		want bool
	}{
		{"v", true}, {"w\x00\x00\x01\x02", true}, {"w\x00\x00\x01\x03", false}, {"x", false}, {"", false},
	} {
		if got := kvValid(k, []byte(c.v)); got != c.want {
			t.Errorf("kvValid(%x, %q) = %v, want %v", k, c.v, got, c.want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "no-such-workload"},
		{"--workload", "smallbank-hot", "--trace", "2"},
		{"--workload", "smallbank-hot", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var a, b hist
	for v := 1000; v <= 100_000; v++ {
		if v%2 == 0 {
			a.add(time.Duration(v))
		} else {
			b.add(time.Duration(v))
		}
	}
	a.merge(&b)
	if a.count() != 99_001 {
		t.Fatalf("count = %d", a.count())
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50.5}, {0.9, 90.1}, {0.99, 99.01}} {
		if got := a.quantileUS(c.q); math.Abs(got-c.want)/c.want > 1.0/histSub {
			t.Errorf("quantile %v = %v µs, want %v within 1/%d", c.q, got, c.want, histSub)
		}
	}
	var empty *hist
	if empty.quantileUS(0.5) != 0 || empty.count() != 0 {
		t.Errorf("nil histogram must read 0")
	}
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 1 << 40, 1<<62 + 1<<50} {
		lo, width := histEdges(histBucket(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d outside its bucket [%v, %v)", v, lo, lo+width)
		}
	}
}

// TestWarmupFailureCounts injects a non-retryable error into the first
// transaction of one client, which runs during warm-up, outside the measured
// window, and requires the run to count it as failed and show its error.
func TestWarmupFailureCounts(t *testing.T) {
	boom := errors.New("injected failure")
	w := &workload{name: "smallbank-hot", setups: 1, setup: func(p params, rec ssidb.Recorder) (*instance, time.Duration, error) {
		inst, d, err := setupSmallBankHot(p, rec)
		if err == nil && rec == nil {
			c := inst.clients[0]
			attempt := c.attempt
			c.attempt = func(c *client, i int, sp spanner) error {
				if i == 0 {
					return boom
				}
				return attempt(c, i, sp)
			}
		}
		return inst, d, err
	}}
	res, err := runWorkload(w, config{
		params: params{seed: 7, out: t.TempDir()},
		warmup: 20 * time.Millisecond,
		window: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Attempted < 2 {
		t.Errorf("attempted=%d failed=%d, want the warm-up failure counted", res.Attempted, res.Failed)
	}
	if !slices.Contains(res.context, "failed transaction: "+boom.Error()) {
		t.Errorf("context %q lacks the injected error", res.context)
	}
}

// TestKVFullScanFindsLostKey checks that the post-run table check of
// kvscan-large fails when a key is missing.
func TestKVFullScanFindsLostKey(t *testing.T) {
	const keys = 2000
	db := ssidb.Open(ssidb.Options{})
	if err := kvmix.Load(db, kvmix.Config{Keys: keys}); err != nil {
		t.Fatal(err)
	}
	if err := kvFullScan(db, keys); err != nil {
		t.Fatalf("intact table: %v", err)
	}
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		return tx.Delete(kvmix.Table, kvmix.Key(keys/2))
	}); err != nil {
		t.Fatal(err)
	}
	if err := kvFullScan(db, keys); err == nil {
		t.Errorf("table with key %d deleted passed the check", keys/2)
	}
}

// TestKVAgeRewritesEveryKey checks that kvAge overwrites every key once with
// the read-write client's value and leaves the table's key set intact.
func TestKVAgeRewritesEveryKey(t *testing.T) {
	const keys = 2000
	db := ssidb.Open(ssidb.Options{})
	if err := kvmix.Load(db, kvmix.Config{Keys: keys}); err != nil {
		t.Fatal(err)
	}
	if err := kvAge(db, 7, keys); err != nil {
		t.Fatal(err)
	}
	if err := kvFullScan(db, keys); err != nil {
		t.Fatal(err)
	}
	err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		return tx.Scan(kvmix.Table, nil, nil, func(k, v []byte) bool {
			if v[0] != 'w' {
				t.Errorf("key %x still holds the loaded value %q", k, v)
				return false
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}
