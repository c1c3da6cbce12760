package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readReferences parses testdata/mps/objectives.tsv.
func readReferences(t *testing.T, dir string) map[string]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "objectives.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	refs := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed reference line %q", line)
		}
		obj, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			t.Fatalf("reference %q: %v", line, err)
		}
		refs[strings.TrimSpace(name)] = obj
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return refs
}

// solveFile runs the built lpsolve binary on one instance and returns the
// reported objective.
func solveFile(t *testing.T, bin string, args ...string) float64 {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("lpsolve %v: %v\n%s", args, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "objective: "); ok {
			obj, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad objective line %q: %v", line, err)
			}
			return obj
		}
	}
	t.Fatalf("no objective in output:\n%s", out)
	return math.NaN()
}

// TestVendoredMPS pins the solver against the vendored public-domain
// instances: every committed reference objective must be reproduced through
// the real binary (the `make test-mps` gate) and must survive a WriteMPS
// round trip.  internal/lp's TestVendoredMPSReferenceRules holds the same
// references under the Dantzig and Bland reference rules.  The set
// exercises G/L/E rows, OBJSENSE MAX, BOUNDS, RANGES and Beale's degenerate
// cycling example.
func TestVendoredMPS(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "mps")
	refs := readReferences(t, dir)
	if len(refs) == 0 {
		t.Fatal("no reference objectives")
	}

	bin := filepath.Join(t.TempDir(), "lpsolve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for name, want := range refs {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".mps")
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("reference names %s but %s is missing", name, path)
			}
			check := func(label string, got float64) {
				tol := 1e-9 * math.Max(1, math.Abs(want))
				if math.Abs(got-want) > tol {
					t.Errorf("%s: objective %.12g, want %.12g", label, got, want)
				}
			}
			check("devex", solveFile(t, bin, path))

			// Normalization round trip: re-emit with -write, solve the copy.
			copyPath := filepath.Join(t.TempDir(), name+".mps")
			if out, err := exec.Command(bin, "-write", copyPath, path).CombinedOutput(); err != nil {
				t.Fatalf("lpsolve -write: %v\n%s", err, out)
			}
			check("rewritten", solveFile(t, bin, copyPath))
		})
	}
}
