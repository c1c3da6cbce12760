package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files from the current output instead of
// comparing against them:
//
//	go test ./internal/experiments -run '^TestGoldenAll$' -update
//
// (`make golden`).  A change that moves a figure regenerates them and lists
// every moved cell, with its reason, in CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/all-seed*.golden from the current output")

// wallClockColumns names the columns that measure elapsed time, per table;
// the golden masks them because they change from run to run.
var wallClockColumns = map[string]string{
	"sched-timing":       "avg time (ms)",
	"heuristic-vs-exact": "runtime (ms)",
}

// TestGoldenAll pins the reproduction's output: `cmd/experiments -exp all`
// at the default (Quick) budget for seeds 1–3, as the command prints it,
// with the wall-clock cells replaced by "*".  A figure that moves fails
// here with every moved line.
func TestGoldenAll(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s, err := NewSuite(Config{Budget: Quick, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			tables, err := s.All()
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, tbl := range tables {
				maskWallClock(tbl)
				b.WriteString(tbl.String())
				b.WriteString("\n")
			}
			got := b.String()

			path := filepath.Join("testdata", fmt.Sprintf("all-seed%d.golden", seed))
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if moved := diffLines(string(want), got); moved != "" {
				t.Errorf("output differs from %s (regenerate with -update and list the moved cells):\n%s", path, moved)
			}
		})
	}
}

// maskWallClock replaces tbl's wall-clock cells with "*".
func maskWallClock(tbl *Table) {
	name, ok := wallClockColumns[tbl.ID]
	if !ok {
		return
	}
	for c, col := range tbl.Columns {
		if col != name {
			continue
		}
		for _, row := range tbl.Rows {
			row[c] = "*"
		}
	}
}

// diffLines lists the lines of got that differ from want, by line number,
// or returns "" when the two are equal.
func diffLines(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}
