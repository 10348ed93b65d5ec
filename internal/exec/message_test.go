package exec

import (
	"errors"
	"slices"
	"testing"

	"autopart/internal/geometry"
	"autopart/internal/region"
)

// TestPackInstallAcrossHeldRuns holds packField and installField to a
// region held over two runs, {1..2} and {6..8}: a set spanning both
// packs and installs the right slots, and a set in the gap, or one
// crossing it, fails with the out-of-window error for every field kind.
func TestPackInstallAcrossHeldRuns(t *testing.T) {
	whole := region.New("R", 10)
	whole.AddScalarField("x")
	whole.AddIndexField("p")
	whole.AddRangeField("g")
	for i := range whole.Scalar("x") {
		whole.Scalar("x")[i] = float64(i)
		whole.Index("p")[i] = int64(i)
		whole.Ranges("g")[i] = geometry.Interval{Lo: int64(i), Hi: int64(i) + 1}
	}
	r := whole.CopyWindow(geometry.FromIntervals(geometry.Interval{Lo: 1, Hi: 3}, geometry.Interval{Lo: 6, Hi: 9}))

	across := geometry.FromSlice([]int64{2, 6, 8})
	msg, err := packField(0, r, "x", across)
	if err != nil || !slices.Equal(msg.scalars, []float64{2, 6, 8}) {
		t.Fatalf("pack across both runs = %v, %v; want [2 6 8]", msg.scalars, err)
	}
	msg.scalars = []float64{20, 60, 80}
	if err := installField(0, r, "x", &msg); err != nil {
		t.Fatal(err)
	}
	if got := r.Scalar("x"); !slices.Equal(got, []float64{1, 20, 60, 7, 80}) {
		t.Errorf("install across both runs: held values %v, want [1 20 60 7 80]", got)
	}

	for _, set := range []geometry.IndexSet{geometry.Range(3, 6), geometry.Range(4, 5), geometry.Range(2, 7)} {
		for _, f := range []string{"x", "p", "g"} {
			if _, err := packField(0, r, f, set); !errors.Is(err, errOutsideWindow) {
				t.Errorf("pack %s over %s = %v, want the out-of-window error", f, set, err)
			}
			msg, err := packField(0, whole, f, set)
			if err != nil {
				t.Fatal(err)
			}
			if err := installField(0, r, f, &msg); !errors.Is(err, errOutsideWindow) {
				t.Errorf("install %s over %s = %v, want the out-of-window error", f, set, err)
			}
		}
	}
}
