package exec_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/pkg/autopart"
)

// progCases is the serialization coverage set: stencil (affine maps,
// identity), spmv (a launch whose WorkSym was mutated after NewPlan —
// the case that forces launches to travel fully serialized), and
// circuit-hint (extern partitions, table maps, §5.2 private
// sub-partitions). Together they exercise every statement and index-map
// kind the builtins produce.
func progCases(t *testing.T) []appCase {
	t.Helper()
	return []appCase{
		{"stencil", func(n int) (*exec.Program, error) {
			return stencil.Executable(stencil.Config{Width: 128, RowsPerNode: 4}, compiled(t, "stencil", stencil.Source()), n)
		}},
		{"spmv", func(n int) (*exec.Program, error) {
			return spmv.Executable(spmv.Config{RowsPerNode: 64, NnzPerRow: 8}, compiled(t, "spmv", spmv.Source), n)
		}},
		{"circuit-hint", func(n int) (*exec.Program, error) {
			return circuit.Executable(circuit.Config{WiresPerCluster: 100, NodesPerCluster: 50, SharedFraction: 0.02, CrossFraction: 0.2}, compiled(t, "circuit-hint", circuit.HintSource), n, true)
		}},
	}
}

// TestProgramRoundTrip is the serialization contract: decode(encode(p))
// re-encodes to the identical bytes (a fixed point, so nothing is lost
// or reordered), and the decoded program *runs* bit-identically to the
// original — the property the multi-process executor depends on, since
// workers only ever see the decoded copy.
func TestProgramRoundTrip(t *testing.T) {
	const nodes, steps = 3, 2
	for _, app := range progCases(t) {
		app := app
		t.Run(app.name, func(t *testing.T) {
			prog, err := app.build(nodes)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			blob, err := exec.EncodeProgram(prog)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			decoded, err := exec.DecodeProgram(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			blob2, err := exec.EncodeProgram(decoded)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("encode/decode/encode is not a fixed point: %d vs %d bytes", len(blob), len(blob2))
			}

			want, err := exec.RunSequentialReference(prog, steps)
			if err != nil {
				t.Fatalf("sequential reference: %v", err)
			}
			res, err := exec.Run(decoded, exec.Config{Nodes: nodes, Steps: steps})
			if err != nil {
				t.Fatalf("run decoded program: %v", err)
			}
			for name, wr := range want.Regions {
				if same, diff := wr.SameData(res.Machine.Regions[name]); !same {
					t.Errorf("decoded program's region %s diverges: %s", name, diff)
				}
			}
		})
	}
}

// TestProgramGoldenBytes pins EncodeProgram's output byte for byte on
// progCases at 3 nodes (digests computed when progWireVersion 1 was
// introduced): a worker built from another commit of the same protocol
// version must decode exactly these bytes.
func TestProgramGoldenBytes(t *testing.T) {
	golden := map[string]struct {
		size int
		sum  string
	}{
		"stencil":      {29129, "96f1e381933acb1670cb5ce0b124e1ce4acd7362b0bb7a7566ee62345dea0abc"},
		"spmv":         {31948, "e8819fea71a7ab2b04049fde2420edef769d412d8c1bab48278119a91725da0d"},
		"circuit-hint": {19112, "920be8bb37c5185c5f9b18329756e503c4a79dbbb181825e0d39e0964f47becf"},
	}
	for _, app := range progCases(t) {
		prog, err := app.build(3)
		if err != nil {
			t.Fatalf("%s: build: %v", app.name, err)
		}
		blob, err := exec.EncodeProgram(prog)
		if err != nil {
			t.Fatalf("%s: encode: %v", app.name, err)
		}
		sum := sha256.Sum256(blob)
		want := golden[app.name]
		if got := hex.EncodeToString(sum[:]); len(blob) != want.size || got != want.sum {
			t.Errorf("%s: %d bytes sha256 %s, want %d bytes %s", app.name, len(blob), got, want.size, want.sum)
		}
	}
}

// TestProgramDecodeRejects pins the decoder's refusal paths: a foreign
// version byte, trailing garbage, and truncation at every byte boundary
// must all error (never panic, never silently accept).
func TestProgramDecodeRejects(t *testing.T) {
	prog, err := progCases(t)[0].build(2)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	blob, err := exec.EncodeProgram(prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0]++
		_, err := exec.DecodeProgram(bad)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("foreign version byte: got %v, want version error", err)
		}
	})
	t.Run("trailing", func(t *testing.T) {
		bad := append(append([]byte(nil), blob...), 0)
		if _, err := exec.DecodeProgram(bad); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := exec.DecodeProgram(nil); err == nil {
			t.Fatal("empty blob accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every strict prefix must fail: the format has no optional tail.
		stride := 1
		if len(blob) > 4096 {
			stride = len(blob) / 4096
		}
		for n := 0; n < len(blob); n += stride {
			if _, err := exec.DecodeProgram(blob[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(blob))
			}
		}
	})
}

// TestNodeResultRoundTrip checks the stats/final-shard report a worker
// streams back: RunNode's output re-encodes to a fixed point, and a
// result assembled from decoded per-node reports is bit-identical to
// the in-process run.
func TestNodeResultRoundTrip(t *testing.T) {
	const nodes, steps = 3, 2
	prog, err := progCases(t)[0].build(nodes)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tr, err := exec.InprocTransport()(nodes)
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	cfg := exec.Config{Nodes: nodes, Steps: steps}
	type out struct {
		nr  *exec.NodeResult
		err error
	}
	outs := make([]out, nodes)
	done := make(chan int, nodes)
	for id := 0; id < nodes; id++ {
		go func(id int) {
			nr, err := exec.RunNode(prog, cfg, id, tr)
			outs[id] = out{nr, err}
			done <- id
		}(id)
	}
	for i := 0; i < nodes; i++ {
		<-done
	}
	results := make([]*exec.NodeResult, nodes)
	for id, o := range outs {
		if o.err != nil {
			t.Fatalf("node %d: %v", id, o.err)
		}
		blob, err := exec.EncodeNodeResult(o.nr)
		if err != nil {
			t.Fatalf("node %d: encode result: %v", id, err)
		}
		decoded, err := exec.DecodeNodeResult(blob)
		if err != nil {
			t.Fatalf("node %d: decode result: %v", id, err)
		}
		blob2, err := exec.EncodeNodeResult(decoded)
		if err != nil {
			t.Fatalf("node %d: re-encode result: %v", id, err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("node %d: result encode/decode/encode is not a fixed point", id)
		}
		if _, err := exec.DecodeNodeResult(append(append([]byte(nil), blob...), 0)); err == nil {
			t.Fatalf("node %d: trailing byte accepted on result blob", id)
		}
		results[id] = decoded
	}

	res, err := exec.AssembleResult(prog, cfg, results)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	want, err := exec.RunSequentialReference(prog, steps)
	if err != nil {
		t.Fatalf("sequential reference: %v", err)
	}
	for name, wr := range want.Regions {
		if same, diff := wr.SameData(res.Machine.Regions[name]); !same {
			t.Errorf("assembled region %s diverges: %s", name, diff)
		}
	}
}

// FuzzDecodeProgram hammers the program decoder with mutated blobs: it
// must never panic, and anything it accepts must canonicalize — one
// decode/encode pass later, the encoding is a fixed point (the program
// analogue of FuzzDecodeMessage's property for data frames; the first
// pass is allowed to reorder a mutated-but-decodable blob into
// canonical form, the second must change nothing).
func FuzzDecodeProgram(f *testing.F) {
	if c, err := autopart.Compile(stencil.Source(), autopart.Options{}); err == nil {
		if prog, err := stencil.Executable(stencil.Config{Width: 64, RowsPerNode: 4}, c, 2); err == nil {
			if blob, err := exec.EncodeProgram(prog); err == nil {
				f.Add(blob)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := exec.DecodeProgram(data)
		if err != nil {
			return
		}
		canon, err := exec.EncodeProgram(prog)
		if err != nil {
			t.Fatalf("re-encode of accepted blob failed: %v", err)
		}
		prog2, err := exec.DecodeProgram(canon)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		canon2, err := exec.EncodeProgram(prog2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical encoding is not a fixed point: %d vs %d bytes", len(canon), len(canon2))
		}
	})
}
