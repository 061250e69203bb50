package figures

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ssi/internal/server"
	"ssi/ssidb"
)

func TestCatalogueComplete(t *testing.T) {
	all := All(QuickScale())
	seen := map[string]bool{}
	figs := 0
	for _, s := range all {
		if seen[s.Name] {
			t.Fatalf("duplicate scenario %s", s.Name)
		}
		seen[s.Name] = true
		if s.Title == "" || s.Build == nil {
			t.Fatalf("scenario %s missing title or build", s.Name)
		}
		if (s.Isos == nil) != (s.Programs != nil) {
			t.Fatalf("scenario %s: default isolations must be set exactly when no program analysis picks them", s.Name)
		}
		if strings.HasPrefix(s.Name, "fig") {
			figs++
			if s.Paper == "" || len(s.Isos) != 3 {
				t.Fatalf("figure %s missing paper result or the SI/SSI/S2PL axis", s.Name)
			}
		}
	}
	if figs != 18 {
		t.Fatalf("catalogue has %d figures, the paper has 18 (6.1-6.18)", figs)
	}
	for i := 1; i <= 18; i++ {
		if !seen[fmt.Sprintf("fig6.%d", i)] {
			t.Fatalf("figure 6.%d missing", i)
		}
	}
	if got, err := Select(QuickScale(), "fig6.1?,hot"); err != nil || len(got) != 10 {
		t.Fatalf("Select(fig6.1?,hot) = %d rows, %v; want 9 figures + hot", len(got), err)
	}
	if _, err := Select(QuickScale(), "fig9.99"); err == nil {
		t.Fatal("Select accepted a pattern matching nothing")
	}
}

// TestEveryScenarioExecutes measures every row for one short cell — in
// process, and the rows with a Remote form against an in-process server —
// guarding the table's configurations against bit-rot without paying for
// full sweeps. The TPC-C rows dominate load time, so the scale is trimmed.
func TestEveryScenarioExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("loads every benchmark dataset")
	}
	s := QuickScale()
	s.TPCCWarehouses = 1
	s.TPCCInitialOrders = 10
	cfg := Config{Duration: 20 * time.Millisecond}
	mpl := []int{2}

	srv, err := server.Listen("127.0.0.1:0", server.Config{DB: ssidb.Open(ssidb.Options{}), MPL: 1})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.DB().Close()
	defer srv.Shutdown(t.Context())

	for _, sc := range All(s) {
		c := cfg
		c.Iso = ssidb.SerializableSI
		if sc.Programs != nil {
			rep, err := sc.Report()
			if err != nil || !rep.Robust {
				t.Fatalf("%s: robustness analysis: %+v, %v", sc.Name, rep, err)
			}
			c.Iso = rep.Level
		}
		measure := func(where string) Cell {
			t.Helper()
			cells, err := Measure(sc, c, mpl)
			if err != nil {
				t.Fatalf("%s %s: %v", sc.Name, where, err)
			}
			if len(cells) != 1 || cells[0].Commits == 0 || cells[0].P50Us <= 0 || cells[0].P50Us > cells[0].MaxUs {
				t.Fatalf("%s %s: %+v", sc.Name, where, cells)
			}
			return cells[0]
		}
		cell := measure("in process")
		if sc.Background != nil && (cell.Scans == 0 || cell.WriterP99Us != cell.P99Us) {
			t.Fatalf("%s: background scanner not reported: %+v", sc.Name, cell)
		}
		if sc.Programs != nil && (cell.ProgramRuns == 0 || cell.ProgramSIRuns != cell.ProgramRuns || cell.FootprintViolations != 0) {
			t.Fatalf("%s: programs not run at plain SI: %+v", sc.Name, cell)
		}
		if sc.Remote != nil {
			c.Addr = srv.Addr().String()
			cell := measure("remote")
			if cell.Connections != 2 || cell.MPL != 1 || cell.Admitted == 0 {
				t.Fatalf("%s remote: admission counters missing: %+v", sc.Name, cell)
			}
		}
	}
}
