// Command ssibench sweeps rows of the scenario table (internal/figures)
// over isolation × shards × MPL and prints one line per measured cell: the
// 18 figures of the paper's evaluation chapter (fig6.1..fig6.18, at SI,
// Serializable SI and S2PL), the scaling mixes that go beyond it, and the
// design ablations. -json also writes each run as BENCH_<name>.json.
//
// Usage:
//
//	ssibench                                 # every figure, quick scale
//	ssibench -scenario fig6.1,fig6.8         # selected rows (path.Match patterns)
//	ssibench -paper-scale                    # thesis data volumes (slow)
//	ssibench -duration 2s -trials 3          # longer, with confidence intervals
//	ssibench -scenario kvmix -mpl 1,8,32 -shards 1,16     # lock-shard sweep
//	ssibench -scenario readheavy -mpl 8 -shards 1,4,16    # partition sweep
//	ssibench -scenario hot -iso SI,SSI,S2PL -mpl 8        # conflict path
//	ssibench -scenario tpcc,tpcc-programs -mpl 8          # what the proof saves
//	ssibench -scenario kvmix -durable -mpl 1,8,32         # real group-commit WAL
//	ssibench -scenario hot -server 127.0.0.1:7654 -connections 64
//
// The rows are listed by -scenario help. -shards sets the row's shard axis:
// the lock-table shard count (1 = the paper's single lock-table latch), or
// the row-store partition count for readheavy and scanstall; by default
// the row keeps its own setting (readonly and readmostly pin 16 lock
// shards) or lets the engine pick. -iso overrides a row's default levels (figures run SI, SSI
// and S2PL; other rows SSI) except on the *-programs rows, where the
// engine's robustness analysis picks the level.
//
// -server drives a running ssiserver from this process, one connection per
// worker (-connections), reporting end-to-end latency, client retries and
// the server's admission counters; the kvmix (the default there), hot and
// smallbank rows can run over the network.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ssi/internal/figures"
	"ssi/internal/harness"
	"ssi/ssidb"
)

func main() {
	var (
		scenarios  = flag.String("scenario", "fig*", "comma-separated scenario names or path.Match patterns, or 'help' to list them; with -server the default is kvmix")
		isoList    = flag.String("iso", "", "comma-separated isolation levels (SI, SSI, S2PL); default: the row's own")
		mplList    = flag.String("mpl", "", "comma-separated MPLs (default: the paper's 1,2,3,5,10,20,50)")
		shardList  = flag.String("shards", "", "comma-separated shard counts on the row's shard axis (default: the row's own)")
		duration   = flag.Duration("duration", 500*time.Millisecond, "measurement duration per cell")
		warmup     = flag.Duration("warmup", 100*time.Millisecond, "warmup per cell")
		trials     = flag.Int("trials", 1, "trials per cell (for 95% confidence intervals)")
		paperScale = flag.Bool("paper-scale", false, "use the thesis data volumes (W=10 standard TPC-C etc.)")
		durable    = flag.Bool("durable", false, "commit through a real on-disk WAL (group-commit fsyncs; a fresh temp directory per loaded database)")
		jsonOut    = flag.Bool("json", false, "also write machine-readable results as BENCH_<name>.json")
		serverAddr = flag.String("server", "", "drive a running ssiserver at this address instead of an in-process engine")
		connCount  = flag.Int("connections", 64, "with -server: concurrent client connections, one worker each")
	)
	flag.Parse()

	scale := figures.QuickScale()
	if *paperScale {
		scale = figures.PaperScale()
	}
	if *serverAddr != "" && !flagWasSet("scenario") {
		*scenarios = "kvmix" // the figures cannot run over the network
	}
	if *scenarios == "help" {
		for _, s := range figures.All(scale) {
			fmt.Printf("%-20s %s\n", s.Name, s.Title)
		}
		return
	}
	selected, err := figures.Select(scale, *scenarios)
	if err != nil {
		usage("%v", err)
	}
	var isos []ssidb.Isolation
	for _, name := range split(*isoList) {
		iso, ok := parseIso(name)
		if !ok {
			usage("unknown isolation %q (want SI, SSI or S2PL)", name)
		}
		isos = append(isos, iso)
	}
	mpls := parseInts(*mplList, "mpl", figures.MPLs)
	shards := parseInts(*shardList, "shards", []int{0})
	if *serverAddr != "" {
		// The server owns the engine: its data volume, shard counts and
		// durability are set where it was started, and the connection
		// count is the worker count.
		for _, f := range []string{"paper-scale", "shards", "durable", "mpl"} {
			if flagWasSet(f) {
				usage("-%s does not apply to -server", f)
			}
		}
		mpls = []int{*connCount}
	} else if flagWasSet("connections") {
		usage("-connections requires -server")
	}

	for _, s := range selected {
		if s.Programs != nil && isos != nil {
			usage("-iso does not apply to %s; the robustness analysis picks the level", s.Name)
		}
		if *serverAddr != "" && s.Remote == nil {
			usage("%s cannot run against a server (rows that can: kvmix, hot, smallbank)", s.Name)
		}
	}

	for _, s := range selected {
		levels := isos
		if levels == nil {
			levels = s.Isos
		}
		fmt.Printf("== %s: %s ==\n", s.Name, s.Title)
		if s.Paper != "" {
			fmt.Printf("   paper: %s\n", s.Paper)
		}
		if s.Programs != nil {
			rep, err := s.Report()
			if err != nil {
				fatal("%s: %v", s.Name, err)
			}
			fmt.Printf("   programs: robust=%v -> every transaction via RunProgram at %s", rep.Robust, rep.Level)
			if len(rep.Remedies) > 0 {
				fmt.Printf(" (remedies: %v)", rep.Remedies)
			}
			fmt.Println()
			levels = []ssidb.Isolation{rep.Level}
		}

		start := time.Now()
		var cells []figures.Cell
		for _, iso := range levels {
			for _, sh := range shards {
				cs, err := figures.Measure(s, figures.Config{
					Iso: iso, Shards: sh, Durable: *durable, Addr: *serverAddr,
					Duration: *duration, Warmup: *warmup, Trials: *trials,
				}, mpls)
				if err != nil {
					fatal("%v", err)
				}
				for _, c := range cs {
					printCell(c)
				}
				cells = append(cells, cs...)
			}
		}
		fmt.Printf("   (measured in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *jsonOut {
			writeJSON(s, levels, cells, *duration, *trials, *durable, *serverAddr != "")
		}
	}
}

// printCell prints one cell: throughput and aborts, latency, and every
// engine counter block that saw traffic in the window.
func printCell(c figures.Cell) {
	tps := fmt.Sprintf("%.0f", c.TPS)
	if c.CI95 > 0 {
		tps += fmt.Sprintf("±%.0f", c.CI95)
	}
	where := fmt.Sprintf("mpl=%d", c.MPL)
	if c.Connections > 0 {
		where = fmt.Sprintf("conns=%d mpl=%d", c.Connections, c.MPL)
	}
	if c.Shards > 0 {
		where += fmt.Sprintf(" shards=%d", c.Shards)
	}
	rate := func(n uint64) string {
		if c.Commits == 0 || n == 0 {
			return "0"
		}
		return fmt.Sprintf("%.2g%%", 100*float64(n)/float64(c.Commits))
	}
	fmt.Printf("%-5s %-18s %12s commits/s  dl/cf/us per C=%s/%s/%s  p50=%.0fµs p99=%.0fµs max=%.0fµs\n",
		c.Iso, where, tps, rate(c.Deadlocks), rate(c.Conflicts), rate(c.Unsafe), c.P50Us, c.P99Us, c.MaxUs)
	if c.Connections == 0 {
		fmt.Printf("      locks: waits=%d spin=%d parks=%d wakeups=%d timeouts=%d wait=%.0fms held-at-end=%d\n",
			c.LockWaits, c.LockSpinGrants, c.LockParks, c.LockWakeups, c.Timeouts, c.LockWaitMs, c.LockedKeys)
	}
	if c.ROBegins > 0 {
		fmt.Printf("      read-only: begins=%d promotions=%d siread-skips=%d\n", c.ROBegins, c.ROPromotions, c.ROSkips)
	}
	if c.ProgramRuns > 0 {
		fmt.Printf("      programs: runs=%d at-SI=%d footprint-violations=%d escalations=%d\n",
			c.ProgramRuns, c.ProgramSIRuns, c.FootprintViolations, c.SDGEscalations)
	}
	if c.Durable {
		fmt.Printf("      wal: appends=%d batches=%d fsyncs=%d avgbatch=%.1f\n",
			c.WALAppends, c.GroupCommitBatches, c.Fsyncs, c.AvgBatchSize)
	}
	if c.Scans > 0 {
		fmt.Printf("      scans=%d avg=%.1fms (writer latencies above)\n", c.Scans, c.ScanAvgMs)
	}
	if c.Connections > 0 {
		fmt.Printf("      client: p999=%.0fµs retries=%d rollbacks=%d  admission: admitted=%d refused=%d queue-wait=%.0fms\n",
			c.P999Us, c.Retries, c.Rollbacks, c.Admitted, c.QueueFullRefusals+c.QueueTimeouts, c.QueueWaitMs)
	}
}

// benchDoc is the BENCH_<name>.json document.
type benchDoc struct {
	Name     string         `json:"name"`
	Title    string         `json:"title,omitempty"`
	Axis     string         `json:"axis,omitempty"` // what "shards" counts: lock or table
	Duration string         `json:"duration"`
	Trials   int            `json:"trials"`
	Cells    []figures.Cell `json:"cells"`
}

// writeJSON writes one scenario run as BENCH_<name>.json in the working
// directory, naming it <scenario>-<levels>[-durable], or
// client-<scenario>-<levels>-c<connections>-mpl<server cap> against a
// server.
func writeJSON(s figures.Scenario, levels []ssidb.Isolation, cells []figures.Cell, duration time.Duration, trials int, durable, remote bool) {
	names := []string{s.Name}
	for _, iso := range levels {
		names = append(names, iso.String())
	}
	doc := benchDoc{Name: strings.Join(names, "-"), Title: s.Title, Axis: "lock",
		Duration: duration.String(), Trials: trials, Cells: cells}
	switch {
	case remote:
		doc.Axis = ""
		doc.Name = fmt.Sprintf("client-%s-c%d-mpl%d", doc.Name, cells[0].Connections, cells[0].MPL)
	case s.ShardTables:
		doc.Axis = "table"
	}
	if durable {
		doc.Name += "-durable"
	}
	path := "BENCH_" + doc.Name + ".json"
	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("   wrote %s\n\n", path)
}

// parseIso maps an -iso entry to an isolation level.
func parseIso(name string) (ssidb.Isolation, bool) {
	for _, iso := range harness.DefaultIsolations() {
		if strings.EqualFold(name, iso.String()) {
			return iso, true
		}
	}
	return 0, false
}

func split(list string) []string {
	var out []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func parseInts(list, what string, def []int) []int {
	items := split(list)
	if items == nil {
		return def
	}
	var out []int
	for _, s := range items {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			usage("bad %s %q", what, s)
		}
		out = append(out, n)
	}
	return out
}

// flagWasSet reports whether the named flag was given on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ssibench: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ssibench: "+format+"\n", args...)
	os.Exit(1)
}
