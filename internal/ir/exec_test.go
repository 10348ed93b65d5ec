package ir

import (
	"math/rand"
	"strings"
	"testing"

	"autopart/internal/geometry"
	"autopart/internal/region"
)

func TestRunSequentialSimpleStore(t *testing.T) {
	loops := mustNormalize(t, `
region R { v: scalar }
for i in R {
  R[i].v = 2 + 3
}
`)
	r := region.New("R", 4)
	r.AddScalarField("v")
	m := NewMachine().AddRegion(r)
	if err := m.RunSequential(loops[0]); err != nil {
		t.Fatal(err)
	}
	for i, v := range r.Scalar("v") {
		if v != 5 {
			t.Errorf("v[%d] = %v", i, v)
		}
	}
}

func TestRunSequentialGatherWithFunction(t *testing.T) {
	// R[i].v += R[h(i)].w with h(i) = i+1 mod 8.
	loops := mustNormalize(t, `
region R { v: scalar, w: scalar }
function h : R -> R
for i in R {
  R[i].v += R[h(i)].w
}
`)
	r := region.New("R", 8)
	r.AddScalarField("v")
	r.AddScalarField("w")
	for i := range r.Scalar("w") {
		r.Scalar("w")[i] = float64(i)
	}
	m := NewMachine().AddRegion(r)
	m.AddFunc("h", geometry.AffineMap{Name: "h", Stride: 1, Offset: 1, Modulo: 8})
	if err := m.RunSequential(loops[0]); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		want := float64((i + 1) % 8)
		if got := r.Scalar("v")[i]; got != want {
			t.Errorf("v[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestRunSequentialIndirection(t *testing.T) {
	// Scatter-reduce through a pointer field: S[R[i].ptr].acc += R[i].v.
	loops := mustNormalize(t, `
region R { ptr: index(S), v: scalar }
region S { acc: scalar }
for i in R {
  p = R[i].ptr
  S[p].acc += R[i].v
}
`)
	r := region.New("R", 6)
	r.AddIndexField("ptr")
	r.AddScalarField("v")
	s := region.New("S", 3)
	s.AddScalarField("acc")
	copy(r.Index("ptr"), []int64{0, 0, 1, 1, 2, 2})
	for i := range r.Scalar("v") {
		r.Scalar("v")[i] = float64(i + 1)
	}
	m := NewMachine().AddRegion(r).AddRegion(s)
	if err := m.RunSequential(loops[0]); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 7, 11} // 1+2, 3+4, 5+6
	for i, w := range want {
		if got := s.Scalar("acc")[i]; got != w {
			t.Errorf("acc[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestRunSequentialInnerLoopSpMV(t *testing.T) {
	loops := mustNormalize(t, `
region Y { val: scalar }
region Ranges : Y { span: range(Mat) }
region Mat { val: scalar, ind: index(X) }
region X { val: scalar }
for i in Y {
  for k in Ranges[i].span {
    Y[i].val += Mat[k].val * X[Mat[k].ind].val
  }
}
`)
	// 2x2 identity-ish matrix in CSR: row 0 -> entries 0..1, row 1 -> 2.
	y := region.New("Y", 2)
	y.AddScalarField("val")
	ranges := region.New("Ranges", 2)
	ranges.AddRangeField("span")
	ranges.Ranges("span")[0] = geometry.Interval{Lo: 0, Hi: 2}
	ranges.Ranges("span")[1] = geometry.Interval{Lo: 2, Hi: 3}
	mat := region.New("Mat", 3)
	mat.AddScalarField("val")
	mat.AddIndexField("ind")
	copy(mat.Scalar("val"), []float64{2, 3, 4})
	copy(mat.Index("ind"), []int64{0, 1, 1})
	x := region.New("X", 2)
	x.AddScalarField("val")
	copy(x.Scalar("val"), []float64{10, 100})

	m := NewMachine().AddRegion(y).AddRegion(ranges).AddRegion(mat).AddRegion(x)
	if err := m.RunSequential(loops[0]); err != nil {
		t.Fatal(err)
	}
	// y0 = 2*10 + 3*100 = 320; y1 = 4*100 = 400.
	if y.Scalar("val")[0] != 320 || y.Scalar("val")[1] != 400 {
		t.Errorf("y = %v", y.Scalar("val"))
	}
}

func TestRunSequentialGuards(t *testing.T) {
	// Clamped neighbor: h is partial at the boundary.
	loops := mustNormalize(t, `
region R { v: scalar, w: scalar }
function h : R -> R
for i in R {
  if (h(i) in R) {
    R[i].v += R[h(i)].w
  } else {
    R[i].v += 100
  }
}
`)
	clamp := geometry.Interval{Lo: 0, Hi: 4}
	r := region.New("R", 4)
	r.AddScalarField("v")
	r.AddScalarField("w")
	for i := range r.Scalar("w") {
		r.Scalar("w")[i] = float64(i + 1)
	}
	m := NewMachine().AddRegion(r)
	m.AddFunc("h", geometry.AffineMap{Name: "h", Stride: 1, Offset: 1, Clamp: &clamp})
	if err := m.RunSequential(loops[0]); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4, 100}
	for i, w := range want {
		if got := r.Scalar("v")[i]; got != w {
			t.Errorf("v[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestRunSequentialIfCmpAndPointerStore(t *testing.T) {
	loops := mustNormalize(t, `
region P { cell: index(C), moved: scalar }
region C { v: scalar }
function locate : P -> C
for i in P {
  new_cell = locate(i)
  c = P[i].cell
  if (c != new_cell) {
    P[i].cell = new_cell
    P[i].moved = 1
  }
}
`)
	p := region.New("P", 4)
	p.AddIndexField("cell")
	p.AddScalarField("moved")
	c := region.New("C", 4)
	c.AddScalarField("v")
	copy(p.Index("cell"), []int64{0, 1, 0, 3})
	m := NewMachine().AddRegion(p).AddRegion(c)
	// locate(i) = i: particles 0,1,3 already home; particle 2 moves.
	m.AddFunc("locate", geometry.IdentityMap{})
	if err := m.RunSequential(loops[0]); err != nil {
		t.Fatal(err)
	}
	if got := p.Index("cell"); got[2] != 2 {
		t.Errorf("cell = %v", got)
	}
	if got := p.Scalar("moved"); got[0] != 0 || got[2] != 1 {
		t.Errorf("moved = %v", got)
	}
}

func TestRunSequentialReductionOps(t *testing.T) {
	loops := mustNormalize(t, `
region R { a: scalar, b: scalar, mx: scalar, mn: scalar }
for i in R {
  R[i].a += 2
  R[i].b *= 3
  R[i].mx max= 5
  R[i].mn min= 1
}
`)
	r := region.New("R", 2)
	for _, f := range []string{"a", "b", "mx", "mn"} {
		r.AddScalarField(f)
	}
	r.Scalar("a")[0] = 1
	r.Scalar("b")[0] = 2
	r.Scalar("mx")[0] = 9
	r.Scalar("mn")[0] = 0.5
	m := NewMachine().AddRegion(r)
	if err := m.RunSequential(loops[0]); err != nil {
		t.Fatal(err)
	}
	if r.Scalar("a")[0] != 3 || r.Scalar("b")[0] != 6 || r.Scalar("mx")[0] != 9 || r.Scalar("mn")[0] != 0.5 {
		t.Errorf("a=%v b=%v mx=%v mn=%v",
			r.Scalar("a")[0], r.Scalar("b")[0], r.Scalar("mx")[0], r.Scalar("mn")[0])
	}
	if r.Scalar("mx")[1] != 5 || r.Scalar("mn")[1] != 0 {
		t.Errorf("mx[1]=%v mn[1]=%v", r.Scalar("mx")[1], r.Scalar("mn")[1])
	}
}

func TestRunErrors(t *testing.T) {
	loops := mustNormalize(t, `
region R { v: scalar, p: index(R) }
function h : R -> R
for i in R {
  q = R[i].p
  R[q].v = 1
}
`)
	r := region.New("R", 2)
	r.AddScalarField("v")
	r.AddIndexField("p") // all null
	m := NewMachine().AddRegion(r)
	m.AddFunc("h", geometry.IdentityMap{})
	err := m.RunSequential(loops[0])
	if err == nil || !strings.Contains(err.Error(), "invalid index") {
		t.Errorf("null pointer deref: err = %v", err)
	}

	// Unknown loop region.
	bad := &Loop{Var: "i", Region: "Nope"}
	if err := m.RunSequential(bad); err == nil {
		t.Error("unknown region should fail")
	}
}

func TestApplyReduceAndIdentity(t *testing.T) {
	if ApplyReduce("=", 1, 2) != 2 ||
		ApplyReduce("+=", 1, 2) != 3 ||
		ApplyReduce("*=", 2, 3) != 6 ||
		ApplyReduce("max=", 1, 2) != 2 ||
		ApplyReduce("max=", 3, 2) != 3 ||
		ApplyReduce("min=", 1, 2) != 1 ||
		ApplyReduce("min=", 3, 2) != 2 {
		t.Error("ApplyReduce wrong")
	}
	if ReduceIdentity("+=") != 0 || ReduceIdentity("*=") != 1 {
		t.Error("identities wrong")
	}
	if !(ReduceIdentity("max=") < -1e300) || !(ReduceIdentity("min=") > 1e300) {
		t.Error("max/min identities should be infinite")
	}
	mustPanic := func(fn func()) {
		defer func() { _ = recover() }()
		fn()
		t.Error("expected panic")
	}
	mustPanic(func() { ApplyReduce("?", 0, 0) })
	mustPanic(func() { ReduceIdentity("=") })
}

func TestOpaqueFnDeterministicAndIntegral(t *testing.T) {
	a := OpaqueFn("f", []float64{1, 2, 3})
	b := OpaqueFn("f", []float64{1, 2, 3})
	if a != b {
		t.Error("OpaqueFn must be deterministic")
	}
	if OpaqueFn("f", []float64{1}) == OpaqueFn("g", []float64{1}) {
		t.Error("different function names should (generically) differ")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		args := []float64{float64(rng.Intn(1000)), float64(rng.Intn(1000))}
		v := OpaqueFn("f", args)
		if v != float64(int64(v)) || v < 0 || v >= 4093 {
			t.Fatalf("OpaqueFn out of integral range: %v", v)
		}
	}
}

func TestValueHelpers(t *testing.T) {
	s := ScalarValue(2.5)
	if s.IsIndex || !s.Valid || s.AsScalar() != 2.5 {
		t.Error("ScalarValue wrong")
	}
	i := IndexValue(7)
	if !i.IsIndex || !i.Valid || i.AsScalar() != 7 {
		t.Error("IndexValue wrong")
	}
	bad := InvalidIndex()
	if !bad.IsIndex || bad.Valid {
		t.Error("InvalidIndex wrong")
	}
}

func TestRunIterationSingle(t *testing.T) {
	loops := mustNormalize(t, `
region R { v: scalar }
for i in R {
  R[i].v = 7
}
`)
	r := region.New("R", 4)
	r.AddScalarField("v")
	m := NewMachine().AddRegion(r)
	if err := m.RunIteration(loops[0], 2); err != nil {
		t.Fatal(err)
	}
	if r.Scalar("v")[2] != 7 || r.Scalar("v")[1] != 0 {
		t.Errorf("v = %v", r.Scalar("v"))
	}
}

func TestGuardWithExternPartition(t *testing.T) {
	loops := mustNormalize(t, `
region R { v: scalar }
extern partition pR of R
for i in R {
  if (i in pR) {
    R[i].v = 1
  }
}
`)
	r := region.New("R", 6)
	r.AddScalarField("v")
	p := region.NewPartition("pR", r, []geometry.IndexSet{geometry.Range(0, 2), geometry.Range(4, 6)})
	m := NewMachine().AddRegion(r).AddPartition("pR", p)
	if err := m.RunSequential(loops[0]); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 0, 0, 1, 1}
	for i, w := range want {
		if got := r.Scalar("v")[i]; got != w {
			t.Errorf("v[%d] = %v, want %v", i, got, w)
		}
	}
}

// TestOpaqueSeedMatchesOpaqueFn holds the split form of the opaque
// function (a seed per name, one mix per argument) to OpaqueFn over
// random names and argument vectors: no arguments, more than eight,
// and negative, fractional and large values.
func TestOpaqueSeedMatchesOpaqueFn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	value := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return float64(rng.Intn(100))
		case 1:
			return -float64(rng.Intn(1e6))
		case 2:
			return rng.NormFloat64() * 50
		case 3:
			return float64(rng.Int63n(1e12)) + 1e6
		}
		return -rng.Float64() * 1e9
	}
	const letters = "abcdefghijklmnopqrstuvwxyz_0123456789"
	for trial := 0; trial < 2000; trial++ {
		name := make([]byte, rng.Intn(12))
		for i := range name {
			name[i] = letters[rng.Intn(len(letters))]
		}
		args := make([]float64, rng.Intn(20))
		for i := range args {
			args[i] = value()
		}
		acc := OpaqueSeed(string(name))
		for i, a := range args {
			acc = OpaqueMix(acc, i, a)
		}
		if got, want := OpaqueValue(acc), OpaqueFn(string(name), args); got != want {
			t.Fatalf("%q%v: split form %v, OpaqueFn %v", name, args, got, want)
		}
	}
}
