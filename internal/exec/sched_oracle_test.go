package exec

import (
	"fmt"
	"reflect"

	"autopart/internal/geometry"
	"autopart/internal/region"
	"autopart/internal/runtime"
	"autopart/internal/sim"
)

// allPairsTraffic is traffic's definition, evaluated the long way: node
// j tries every peer k, as c against owner k and as owner o against
// c = k, with one Subtract for need(k) and one Intersect per pair.
func allPairsTraffic(sc *launchSched, cfg Config, j int, tag tagKey, pull bool, p, inst, owner *region.Partition) geometry.IndexSet {
	need := func(c int) geometry.IndexSet {
		if p.Sub(c).Empty() {
			return geometry.IndexSet{}
		}
		return inst.Sub(c).Subtract(owner.Sub(c))
	}
	remote := need(j)
	move := func(c, o int, list *[]transfer) geometry.IndexSet {
		nc := remote
		if c != j {
			nc = need(c)
		}
		set := nc.Intersect(owner.Sub(o))
		if !set.Empty() {
			tr := transfer{tag: tag, to: o, set: set}
			tr.tag.from = c
			if pull {
				tr.tag.from, tr.to = o, c
			}
			*list = append(*list, tr)
		}
		return set
	}
	mine, theirs := &sc.backsOut, &sc.backsIn
	if pull {
		mine, theirs = &sc.ghostsIn, &sc.ghostsOut
	}
	msgs := 0
	for k := 0; k < cfg.Nodes; k++ {
		if k == j {
			continue
		}
		if !remote.Empty() && !move(j, k, mine).Empty() {
			msgs++
		}
		if !owner.Sub(j).Empty() {
			if set := move(k, j, theirs); !set.Empty() {
				pay(&sc.stats, cfg.BytesPerElem, !pull, set, 1)
			}
		}
	}
	if !remote.Empty() {
		pay(&sc.stats, cfg.BytesPerElem, pull, remote, msgs)
	}
	return remote
}

// CheckScheduleOracle derives every node's schedule of a run twice, with
// traffic and with allPairsTraffic, and fails on the first launch whose
// transfer lists or statistics differ.
func CheckScheduleOracle(prog *Program, cfg Config) error {
	applyDefaults(&cfg)
	if err := validate(prog, cfg); err != nil {
		return err
	}
	var err error
	for j := 0; j < cfg.Nodes && err == nil; j++ {
		evolveOwners(prog, cfg.Steps, func(step, li int, t runtime.Task, entry, moved map[sim.FieldKey]*region.Partition) {
			if err != nil {
				return
			}
			got, gerr := scheduleLaunch(prog.Parts, cfg, j, step, li, t, entry, moved, traffic)
			want, werr := scheduleLaunch(prog.Parts, cfg, j, step, li, t, entry, moved, allPairsTraffic)
			where := fmt.Sprintf("node %d step %d launch %s", j, step, t.Launch.Name)
			switch {
			case (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error():
				err = fmt.Errorf("%s: error %v, all-pairs error %v", where, gerr, werr)
			case gerr != nil:
			case !reflect.DeepEqual(got.ghostsIn, want.ghostsIn):
				err = fmt.Errorf("%s: ghostsIn %v, all-pairs %v", where, got.ghostsIn, want.ghostsIn)
			case !reflect.DeepEqual(got.ghostsOut, want.ghostsOut):
				err = fmt.Errorf("%s: ghostsOut %v, all-pairs %v", where, got.ghostsOut, want.ghostsOut)
			case !reflect.DeepEqual(got.backsIn, want.backsIn):
				err = fmt.Errorf("%s: backsIn %v, all-pairs %v", where, got.backsIn, want.backsIn)
			case !reflect.DeepEqual(got.backsOut, want.backsOut):
				err = fmt.Errorf("%s: backsOut %v, all-pairs %v", where, got.backsOut, want.backsOut)
			case got.stats != want.stats:
				err = fmt.Errorf("%s: stats %+v, all-pairs %+v", where, got.stats, want.stats)
			}
		})
	}
	return err
}
