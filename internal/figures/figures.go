// Package figures is the scenario table behind every benchmark entry point:
// the 18 figures of the paper's evaluation chapter, the scaling mixes that
// go beyond it, and the design ablations. A row names a workload, its
// default isolation levels, its shard axis and engine options; Measure loads
// a row once and measures it at each MPL through harness.Run, in process or
// against a server.
// cmd/ssibench sweeps rows over isolation × shards × MPL, and the root
// package's BenchmarkScenario runs each row under `go test -bench`.
package figures

import (
	"fmt"
	"math/rand"
	"path"
	"strings"
	"time"

	"ssi/internal/harness"
	"ssi/internal/workload/kvmix"
	"ssi/internal/workload/sibench"
	"ssi/internal/workload/smallbank"
	"ssi/internal/workload/tpcc"
	"ssi/ssidb"
)

// Scenario is one row of the table.
type Scenario struct {
	Name  string
	Title string
	// Paper is the qualitative result the paper reports (fig6.N rows only).
	Paper string
	// Isos are the isolation levels a sweep runs by default. Programs rows
	// leave it nil: their robustness analysis picks the level.
	Isos []ssidb.Isolation
	// ShardTables makes the shard axis Options.TableShards (the row-store
	// partition count) instead of Options.LockShards.
	ShardTables bool
	Options     ssidb.Options
	// Build loads the workload into db and returns its transaction.
	Build func(db *ssidb.DB, iso ssidb.Isolation) (harness.TxnFunc, error)
	// Background, if set, runs on one goroutine beside the workers.
	Background func(db *ssidb.DB, iso ssidb.Isolation) harness.TxnFunc
	// Programs, if set, registers the workload's declared programs on db
	// once Build has loaded it, so the robustness proof covers exactly the
	// measured traffic; Build's transaction runs them through RunProgram.
	Programs func(db *ssidb.DB) (*ssidb.ProgramReport, error)
	// Remote, if set, runs the row against a server (Config.Addr).
	Remote *Remote
}

// Report runs the row's robustness analysis on a throwaway database, so a
// sweep can name the level every cell will run at before it starts.
func (s Scenario) Report() (*ssidb.ProgramReport, error) {
	db := ssidb.Open(ssidb.Options{})
	defer db.Close()
	return s.Programs(db)
}

// Scale tunes data volumes relative to the paper, so the same catalogue
// serves quick CI runs and full reproductions.
type Scale struct {
	// SmallBankFlush is the simulated log flush latency for the "log
	// flushed on commit" SmallBank figures (the paper's disk gave ~10ms).
	SmallBankFlush time.Duration
	// TPCCWarehouses overrides the warehouse count for the W=10 figures
	// (0 keeps the paper's 10).
	TPCCWarehouses int
	// TPCCInitialOrders is the number of preloaded orders per district
	// (the TPC-C spec says 3000).
	TPCCInitialOrders int
}

// QuickScale finishes in minutes on a laptop.
func QuickScale() Scale {
	return Scale{SmallBankFlush: 500 * time.Microsecond, TPCCWarehouses: 2, TPCCInitialOrders: 100}
}

// PaperScale follows the thesis parameters.
func PaperScale() Scale {
	return Scale{SmallBankFlush: 2 * time.Millisecond, TPCCWarehouses: 10, TPCCInitialOrders: 3000}
}

// MPLs is the paper's multiprogramming-level axis.
var MPLs = []int{1, 2, 3, 5, 10, 20, 50}

var (
	ssiOnly = []ssidb.Isolation{ssidb.SerializableSI}
	precise = ssidb.Options{Detector: ssidb.DetectorPrecise}
)

// worker adapts a workload's Load and Worker pair to Build.
func worker[C any](load func(*ssidb.DB, C) error, run func(*ssidb.DB, ssidb.Isolation, C) harness.TxnFunc, cfg C) func(*ssidb.DB, ssidb.Isolation) (harness.TxnFunc, error) {
	return func(db *ssidb.DB, iso ssidb.Isolation) (harness.TxnFunc, error) {
		if err := load(db, cfg); err != nil {
			return nil, err
		}
		return run(db, iso, cfg), nil
	}
}

// programs adapts a ProgramWorker, which runs at the level the robustness
// analysis picks, to worker.
func programs[C any](run func(*ssidb.DB, C) harness.TxnFunc) func(*ssidb.DB, ssidb.Isolation, C) harness.TxnFunc {
	return func(db *ssidb.DB, _ ssidb.Isolation, cfg C) harness.TxnFunc { return run(db, cfg) }
}

func figure(id, title, paper string, opts ssidb.Options, build func(*ssidb.DB, ssidb.Isolation) (harness.TxnFunc, error)) Scenario {
	return Scenario{Name: "fig" + id, Title: title, Paper: paper, Isos: harness.DefaultIsolations(), Options: opts, Build: build}
}

func smallbankFigure(id, title, paper string, cfg smallbank.Config, flush time.Duration) Scenario {
	return figure(id, title, paper, ssidb.Options{
		Granularity:  ssidb.GranularityPage,
		PageMaxKeys:  10, // ~100 leaf pages per table at 1000 accounts (§6.1.2)
		FlushLatency: flush,
		Detector:     ssidb.DetectorBasic, // the BDB prototype used the basic detector
	}, worker(smallbank.Load, smallbank.Worker, cfg))
}

func sibenchFigure(id, title, paper string, cfg sibench.Config) Scenario {
	return figure(id, title, paper, precise, worker(sibench.Load, sibench.Worker, cfg))
}

func tpccFigure(id, title, paper string, cfg tpcc.Config) Scenario {
	return figure(id, title, paper, precise, worker(tpcc.Load, tpcc.Worker, cfg))
}

// kvRow is an SSI-default kvmix row that can also run against a server.
func kvRow(name, title string, cfg kvmix.Config) Scenario {
	return Scenario{Name: name, Title: title, Isos: ssiOnly, Options: precise,
		Build: worker(kvmix.Load, kvmix.Worker, cfg), Remote: kvmixRemote(cfg)}
}

// ablation is an SSI-default row comparing one design choice.
func ablation(name, title string, opts ssidb.Options, build func(*ssidb.DB, ssidb.Isolation) (harness.TxnFunc, error)) Scenario {
	return Scenario{Name: name, Title: title, Isos: ssiOnly, Options: opts, Build: build}
}

// scanStallKeys is the scanstall table width: wide enough that one full
// scan spans hundreds of lock-coupled rounds, the regime where the old
// hold-every-latch protocol stalled writers for the whole scan.
const scanStallKeys = 100000

// mixedQueries is sibench with its queries at queryIso and its updates at
// the cell's level: §3.8's mixed SI/SSI deployment when queryIso is SI.
func mixedQueries(queryIso ssidb.Isolation) func(*ssidb.DB, ssidb.Isolation) (harness.TxnFunc, error) {
	cfg := sibench.Config{Items: 100, QueriesPerUpdate: 10}
	return func(db *ssidb.DB, iso ssidb.Isolation) (harness.TxnFunc, error) {
		if err := sibench.Load(db, cfg); err != nil {
			return nil, err
		}
		return func(r *rand.Rand) error {
			if r.Intn(cfg.QueriesPerUpdate+1) < cfg.QueriesPerUpdate {
				return db.Run(queryIso, func(tx *ssidb.Txn) error {
					_, err := sibench.Query(tx)
					return err
				})
			}
			return db.Run(iso, func(tx *ssidb.Txn) error {
				return sibench.Update(tx, uint32(r.Intn(cfg.Items)))
			})
		}, nil
	}
}

// All returns the table at the given scale: fig6.1..fig6.18, then the
// scaling mixes, then the ablations.
func All(s Scale) []Scenario {
	sb := smallbank.DefaultConfig()
	sbLow := sb
	sbLow.Accounts = 10000
	sbComplex := sb
	sbComplex.OpsPerTxn = 10
	sbComplexLow := sbLow
	sbComplexLow.OpsPerTxn = 10

	w := s.TPCCWarehouses
	if w <= 0 {
		w = 10
	}
	tp := func(warehouses int, tiny, skipYTD, stockMix bool) tpcc.Config {
		cfg := tpcc.DefaultConfig()
		cfg.Warehouses = warehouses
		cfg.Tiny = tiny
		cfg.SkipYTD = skipYTD
		cfg.StockLevelMix = stockMix
		cfg.InitialOrders = s.TPCCInitialOrders
		return cfg
	}
	// The TPC-C scaling rows: tiny scaling, W=1, standard mix.
	tpTiny := tpcc.DefaultConfig()
	tpTiny.Tiny = true
	readMostly := kvmix.ReadMostlyConfig()
	undeclared := readMostly
	undeclared.RODeclared = false
	// 16 lock shards keep the lock-table axis from confounding the
	// read-only comparison: a single shard serializes writers, stretching
	// their lifetimes and arming every unsafe window.
	roOpts := ssidb.Options{Detector: ssidb.DetectorPrecise, LockShards: 16}

	return []Scenario{
		smallbankFigure("6.1", "SmallBank, page locking, no log flush, high contention",
			"SSI ≈ SI, both far above S2PL (10x at MPL 20); unsafe errors dominate SSI aborts", sb, 0),
		smallbankFigure("6.2", "SmallBank, log flushed on commit",
			"throughput climbs with MPL (group commit); S2PL falls behind from deadlock stalls", sb, s.SmallBankFlush),
		smallbankFigure("6.3", "SmallBank, flush, 10 ops per transaction",
			"same shape as 6.2: the workload stays I/O-bound", sbComplex, s.SmallBankFlush),
		smallbankFigure("6.4", "SmallBank, flush, 10x data (low contention)",
			"SI ≈ S2PL; SSI pays 10-15% from page-level false positives", sbLow, s.SmallBankFlush),
		smallbankFigure("6.5", "SmallBank, flush, complex + low contention",
			"like 6.3 with smaller gaps", sbComplexLow, s.SmallBankFlush),
		sibenchFigure("6.6", "sibench, 10 items, 1 query per update",
			"SI ahead; SSI pays lock-manager overhead; S2PL worst under contention",
			sibench.Config{Items: 10, QueriesPerUpdate: 1}),
		sibenchFigure("6.7", "sibench, 100 items, 1 query per update",
			"gap between SI and SSI narrows; S2PL limited by read-write blocking",
			sibench.Config{Items: 100, QueriesPerUpdate: 1}),
		sibenchFigure("6.8", "sibench, 1000 items, 1 query per update",
			"scan CPU dominates; SSI between SI and S2PL",
			sibench.Config{Items: 1000, QueriesPerUpdate: 1}),
		sibenchFigure("6.9", "sibench, 10 items, 10 queries per update",
			"query-mostly: levels closer; S2PL still trails at high MPL",
			sibench.Config{Items: 10, QueriesPerUpdate: 10}),
		sibenchFigure("6.10", "sibench, 100 items, 10 queries per update",
			"as 6.9", sibench.Config{Items: 100, QueriesPerUpdate: 10}),
		sibenchFigure("6.11", "sibench, 1000 items, 10 queries per update",
			"as 6.9 with scan CPU dominating", sibench.Config{Items: 1000, QueriesPerUpdate: 10}),
		tpccFigure("6.12", "TPC-C++, W=1, skip year-to-date updates",
			"SSI within ~10% of SI; S2PL behind once contention bites", tp(1, false, true, false)),
		tpccFigure("6.13", "TPC-C++, W=10, full updates",
			"w_ytd hotspot serialises Payments; levels compressed", tp(w, false, false, false)),
		tpccFigure("6.14", "TPC-C++, W=10, skip year-to-date updates",
			"hotspot removed: SI and SSI pull ahead of S2PL", tp(w, false, true, false)),
		tpccFigure("6.15", "TPC-C++, W=10, tiny scaling (high contention)",
			"SSI tracks SI; S2PL suffers read-write blocking", tp(w, true, false, false)),
		tpccFigure("6.16", "TPC-C++, tiny scaling, skip year-to-date updates",
			"largest SI/SSI lead over S2PL among the standard mixes", tp(w, true, true, false)),
		tpccFigure("6.17", "TPC-C++ Stock Level mix, W=10",
			"multiversion levels beat S2PL decisively: long scans block New Orders under locking",
			tp(w, false, false, true)),
		tpccFigure("6.18", "TPC-C++ Stock Level mix, tiny scaling",
			"as 6.17, amplified by contention", tp(w, true, false, true)),

		// Scaling mixes: commit throughput against parallelism and shard
		// count, where the figures measure contention regimes.
		kvRow("kvmix", "uniform kvmix, 4 reads + 2 writes over 10k keys; shards=1 is the paper's single lock-table latch",
			kvmix.DefaultConfig()),
		kvRow("hot", "hot-key kvmix: half of all point ops on a 16-key hot set, so the SSI conflict path is live",
			kvmix.HotConfig()),
		{Name: "readheavy", Title: "read-heavy kvmix (point reads + merged scans); shards is the row-store partition count, 1 = single tree",
			Isos: ssiOnly, ShardTables: true, Options: precise,
			Build: worker(kvmix.Load, kvmix.Worker, kvmix.ReadHeavyConfig())},
		{Name: "readonly", Title: "read-mostly kvmix: 90% pure readers, declared read-only",
			Isos: ssiOnly, Options: roOpts, Build: worker(kvmix.Load, kvmix.Worker, readMostly)},
		{Name: "readmostly", Title: "read-mostly kvmix: 90% pure readers, undeclared (the baseline for readonly)",
			Isos: ssiOnly, Options: roOpts, Build: worker(kvmix.Load, kvmix.Worker, undeclared)},
		{Name: "scanstall", Title: fmt.Sprintf("full-table scans of %d keys against single-Put writers; shards is the row-store partition count", scanStallKeys),
			Isos: ssiOnly, ShardTables: true, Options: precise,
			Build: func(db *ssidb.DB, iso ssidb.Isolation) (harness.TxnFunc, error) {
				if err := kvmix.Load(db, kvmix.Config{Keys: scanStallKeys, Reads: 0, Writes: 1}); err != nil {
					return nil, err
				}
				return func(r *rand.Rand) error {
					return db.Run(iso, func(tx *ssidb.Txn) error {
						return tx.Put(kvmix.Table, kvmix.Key(r.Intn(scanStallKeys)), []byte("w"))
					})
				}, nil
			},
			Background: func(db *ssidb.DB, iso ssidb.Isolation) harness.TxnFunc {
				return func(*rand.Rand) error {
					return db.Run(iso, func(tx *ssidb.Txn) error {
						return tx.Scan(kvmix.Table, nil, nil, func(k, v []byte) bool { return true })
					})
				}
			}},
		{Name: "smallbank", Title: "SmallBank (thesis §5.1): five programs incl. the WriteCheck pivot plain SI gets wrong",
			Isos: ssiOnly, Options: precise, Build: worker(smallbank.Load, smallbank.Worker, sb),
			Remote: smallbankRemote(sb)},
		{Name: "smallbank-programs", Title: "SmallBank via registered programs: robust after the PromoteBW remedy",
			Options:  precise,
			Programs: func(db *ssidb.DB) (*ssidb.ProgramReport, error) { return smallbank.Register(db, true) },
			Build:    worker(smallbank.Load, programs(smallbank.ProgramWorker), sb)},
		{Name: "tpcc", Title: "TPC-C, tiny scaling, W=1, standard mix: robust, serializable at plain SI",
			Isos: ssiOnly, Options: precise, Build: worker(tpcc.Load, tpcc.Worker, tpTiny)},
		{Name: "tpcc-programs", Title: "TPC-C via registered programs: robust as declared",
			Options: precise, Programs: tpcc.Register,
			Build: worker(tpcc.Load, programs(tpcc.ProgramWorker), tpTiny)},

		// Ablations: one row per variant of a design choice, on SmallBank
		// unless noted.
		ablation("detector-basic", "basic boolean-flag detector (§3.2)",
			ssidb.Options{Detector: ssidb.DetectorBasic}, worker(smallbank.Load, smallbank.Worker, sb)),
		ablation("detector-precise", "precise detector (§3.6): fewer unsafe aborts than detector-basic",
			precise, worker(smallbank.Load, smallbank.Worker, sb)),
		ablation("siread-upgrade-on", "SIREAD locks discarded on upgrade (§3.7.3): a smaller lock table",
			precise, worker(smallbank.Load, smallbank.Worker, sb)),
		ablation("siread-upgrade-off", "SIREAD locks kept on upgrade",
			ssidb.Options{Detector: ssidb.DetectorPrecise, DisableSIReadUpgrade: true}, worker(smallbank.Load, smallbank.Worker, sb)),
		ablation("mixed-all-ssi", "sibench, 100 items, 10 queries per update, everything at the cell's level",
			precise, mixedQueries(ssidb.SerializableSI)),
		ablation("mixed-queries-at-si", "sibench with queries at plain SI (§3.8): no SIREAD traffic from queries",
			precise, mixedQueries(ssidb.SnapshotIsolation)),
		ablation("granularity-row", "row-level locking (InnoDB style)",
			ssidb.Options{Granularity: ssidb.GranularityRow, PageMaxKeys: 10, Detector: ssidb.DetectorPrecise},
			worker(smallbank.Load, smallbank.Worker, sb)),
		ablation("granularity-page", "page-level locking (Berkeley DB style): false conflicts for fewer locks",
			ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 10, Detector: ssidb.DetectorPrecise},
			worker(smallbank.Load, smallbank.Worker, sb)),
	}
}

// Select returns the rows whose names match any of the comma-separated
// path.Match patterns ("fig*", "kvmix,hot"), in table order. A pattern that
// matches nothing is an error.
func Select(s Scale, patterns string) ([]Scenario, error) {
	all := All(s)
	var out []Scenario
	picked := make([]bool, len(all))
	for _, p := range strings.Split(patterns, ",") {
		p = strings.TrimSpace(p)
		hit := false
		for i, sc := range all {
			ok, err := path.Match(p, sc.Name)
			if err != nil {
				return nil, fmt.Errorf("scenario pattern %q: %w", p, err)
			}
			hit = hit || ok
			picked[i] = picked[i] || ok
		}
		if !hit {
			return nil, fmt.Errorf("no scenario matches %q", p)
		}
	}
	for i, sc := range all {
		if picked[i] {
			out = append(out, sc)
		}
	}
	return out, nil
}
