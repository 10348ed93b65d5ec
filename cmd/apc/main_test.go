package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runAPC drives the full command in-process with captured streams.
func runAPC(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), code
}

// stripTiming drops the wall-clock line, the only nondeterministic part
// of apc's output. The goldens were captured with the same rule.
func stripTiming(s string) string {
	lines := strings.Split(s, "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "compile time:") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// tracePasses is the pipeline's pass order, one -trace line each.
var tracePasses = []string{"parse", "check", "normalize", "infer", "relax", "solve", "private", "rewrite"}

// TestGoldenBuiltins proves that -constraints -launches output for every
// builtin benchmark is byte-identical to the goldens captured before the
// pass-pipeline refactor, with and without -trace: tracing writes one
// JSON line per pass to stderr and leaves stdout untouched.
func TestGoldenBuiltins(t *testing.T) {
	for _, b := range []string{"spmv", "stencil", "circuit", "miniaero", "pennant"} {
		t.Run(b, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", b+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, trace := range []bool{false, true} {
				args := []string{"-builtin", b, "-constraints", "-launches"}
				if trace {
					args = append(args, "-trace")
				}
				stdout, stderr, code := runAPC(t, "", args...)
				if code != 0 {
					t.Fatalf("trace=%v: exit %d, stderr:\n%s", trace, code, stderr)
				}
				if got := stripTiming(stdout); got != string(want) {
					t.Errorf("trace=%v: output differs from golden\n--- got ---\n%s\n--- want ---\n%s", trace, got, want)
				}
				if !trace {
					continue
				}
				lines := strings.Split(strings.TrimSpace(stderr), "\n")
				if len(lines) != len(tracePasses) {
					t.Fatalf("got %d trace lines, want %d:\n%s", len(lines), len(tracePasses), stderr)
				}
				for i, line := range lines {
					var rec struct {
						Pass string `json:"pass"`
					}
					if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Pass != tracePasses[i] {
						t.Errorf("trace line %d: want pass %q, got %q (%v)", i, tracePasses[i], line, err)
					}
				}
			}
		})
	}
}

// TestMalformedInputDiagnostics asserts that compile errors carry a
// file:line:col position and a stable diagnostic code on stderr.
func TestMalformedInputDiagnostics(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantPos string
		want    []string
	}{
		{
			name:    "parse error",
			src:     "region R { x: scalar }\nfor i in R {\n  R[i].x = $\n}\n",
			wantPos: "<stdin>:3:12",
			want:    []string{"error[L004]", "unexpected character"},
		},
		{
			name:    "semantic error",
			src:     "region R { x: scalar }\nfor i in Q {\n  R[i].x = 1\n}\n",
			wantPos: "<stdin>:2:1",
			want:    []string{"error[C011]", "unknown region"},
		},
		{
			name:    "inference error",
			src:     "region R { p: index(R), x: scalar }\nfor i in R {\n  j = R[i].p\n  R[j].x = R[j].x\n}\n",
			wantPos: "<stdin>:",
			want:    []string{"error[I", "uncentered"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runAPC(t, tc.src)
			if code == 0 {
				t.Fatalf("expected failure, got success:\n%s", stdout)
			}
			for _, w := range append(tc.want, tc.wantPos) {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr missing %q:\n%s", w, stderr)
				}
			}
		})
	}
}

// TestFileDiagnosticUsesPath asserts diagnostics name the input file.
func TestFileDiagnosticUsesPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.dsl")
	if err := os.WriteFile(path, []byte("region R { x: scalar }\nfor i in Q { R[i].x = 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runAPC(t, "", path)
	if code == 0 {
		t.Fatal("expected failure")
	}
	if want := path + ":2:1: error[C011]"; !strings.Contains(stderr, want) {
		t.Errorf("stderr missing %q:\n%s", want, stderr)
	}
}

// TestTraceEmitsOneJSONLinePerPass asserts -trace produces one parseable
// JSON line per pipeline pass, in order, with wall time and metrics.
func TestTraceEmitsOneJSONLinePerPass(t *testing.T) {
	for _, b := range []string{"spmv", "stencil", "circuit", "miniaero", "pennant"} {
		t.Run(b, func(t *testing.T) {
			_, stderr, code := runAPC(t, "", "-builtin", b, "-trace")
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			lines := strings.Split(strings.TrimSpace(stderr), "\n")
			if len(lines) != len(tracePasses) {
				t.Fatalf("got %d trace lines, want %d:\n%s", len(lines), len(tracePasses), stderr)
			}
			for i, line := range lines {
				var rec struct {
					Pass    string         `json:"pass"`
					Index   int            `json:"index"`
					WallUS  *int64         `json:"wall_us"`
					Metrics map[string]int `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
				}
				if rec.Pass != tracePasses[i] || rec.Index != i {
					t.Errorf("line %d: got pass %q index %d, want %q index %d", i, rec.Pass, rec.Index, tracePasses[i], i)
				}
				if rec.WallUS == nil {
					t.Errorf("line %d: missing wall_us", i)
				}
				if rec.Metrics == nil {
					t.Errorf("line %d: missing metrics", i)
				}
			}
			// The final line reflects the completed compilation.
			var last struct {
				Metrics map[string]int `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if last.Metrics["launches"] == 0 {
				t.Errorf("final trace line reports no launches: %s", lines[len(lines)-1])
			}
		})
	}
}

// TestExplain covers the -explain code documentation path.
func TestExplain(t *testing.T) {
	stdout, _, code := runAPC(t, "", "-explain", "S001")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stdout, "S001") || !strings.Contains(stdout, "no solution") {
		t.Errorf("unexpected -explain output:\n%s", stdout)
	}

	stdout, _, code = runAPC(t, "", "-explain", "all")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"L001", "P001", "C001", "N001", "I001", "S001"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-explain all missing %s", want)
		}
	}

	_, stderr, code := runAPC(t, "", "-explain", "Z999")
	if code == 0 {
		t.Fatal("expected failure for unknown code")
	}
	if !strings.Contains(stderr, "unknown diagnostic code") {
		t.Errorf("unexpected stderr:\n%s", stderr)
	}
}

// TestUnknownBuiltin keeps the pre-refactor CLI error behavior.
func TestUnknownBuiltin(t *testing.T) {
	_, stderr, code := runAPC(t, "", "-builtin", "nope")
	if code == 0 {
		t.Fatal("expected failure")
	}
	if !strings.Contains(stderr, `unknown builtin "nope"`) {
		t.Errorf("unexpected stderr:\n%s", stderr)
	}
}
