package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runPaper drives the full command in-process with captured streams.
func runPaper(args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// maskTimings blanks Table 1's wall-clock cells, the only
// nondeterministic part of the output, keeping the column layout. The
// golden was captured with the same rule.
func maskTimings(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if len(l) <= 22 || !strings.HasSuffix(l, "ms") {
			continue
		}
		var b strings.Builder
		b.WriteString(l[:22])
		for range strings.Fields(l[22:]) {
			fmt.Fprintf(&b, " %10s", "-")
		}
		lines[i] = b.String()
	}
	return strings.Join(lines, "\n")
}

// TestGoldenAll regenerates every section at -nodes 1,2,4. The golden's
// Fig. 14 sections are byte-identical to the retired cmd/scaling's
// output, its ablation values equal the retired BenchmarkAblation*
// metrics, and Table 1's loop counts are the paper's 1/2/3/26/37.
// Figures are deterministic, so the golden also pins them across
// revisions.
func TestGoldenAll(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runPaper("-fig", "all", "-nodes", "1,2,4")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	got := maskTimings(stdout)
	if got != string(want) {
		t.Errorf("output differs from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	const loops = "Num. parallel loops             1          2          3         26         37\n"
	if !strings.Contains(got, loops) {
		t.Errorf("Table 1 loop counts are not 1/2/3/26/37:\n%s", got)
	}

	// Each -fig prints exactly its section of -fig all.
	for _, id := range []string{"14a", "14b", "14c", "14d", "14e", "ablations"} {
		out, stderr, code := runPaper("-fig", id, "-nodes", "1,2,4")
		if code != 0 {
			t.Fatalf("-fig %s: exit %d, stderr:\n%s", id, code, stderr)
		}
		if !strings.Contains(got, out) {
			t.Errorf("-fig %s output is not a section of -fig all:\n%s", id, out)
		}
	}
}

// TestBadArguments asserts that a bad -fig and an empty, malformed or
// non-positive -nodes exit nonzero with a named error.
func TestBadArguments(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "14z"}, `paper: unknown figure "14z"`},
		{[]string{"-nodes", ""}, `paper: bad node count ""`},
		{[]string{"-nodes", "1,0"}, `paper: bad node count "0"`},
		{[]string{"-nodes", "-2"}, `paper: bad node count "-2"`},
		{[]string{"-nodes", "1,two"}, `paper: bad node count "two"`},
	}
	for _, tc := range cases {
		stdout, stderr, code := runPaper(tc.args...)
		if code == 0 {
			t.Errorf("%v: exit 0, want failure", tc.args)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q, want %q", tc.args, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%v: printed output before failing:\n%s", tc.args, stdout)
		}
	}
}
