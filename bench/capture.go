package main

import (
	"encoding/json"
	"fmt"
	"os"

	"autopart/pkg/autopart"
)

// cmdCapture writes testdata/expect.json from the program as it is now.
// It is run from the root of the checkout, once, at the commit that adds
// the benchmark, and again only by a change whose purpose is to move the
// pinned outputs; the binary embeds the file, so rebuild after it.
func cmdCapture(args []string) error {
	if len(args) > 0 {
		usage()
	}
	exp := expectations{Programs: map[string]expectation{}, Comm: map[string]commPin{}}
	for _, p := range builtinPrograms() {
		c, err := autopart.Compile(p.src, autopart.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		exp.Programs[p.name] = expectation{Digest: outcome(c, nil), DPLPartitions: len(c.DPLProgram().Stmts)}
	}
	for _, name := range []string{"partition-sim", "exec-halo", "exec-wide", "exec-wire"} {
		sc := scaleOf(name, false)
		steps := sc.steps
		if name == "partition-sim" {
			steps = simIterations
		}
		compiled, err := compileApps(sc.apps)
		if err != nil {
			return err
		}
		for _, a := range sc.apps {
			prog, err := a.build(compiled[a.prog], a.nodes)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, a.name, err)
			}
			// The executor's measured counters equal the model's, node by
			// node; every run checks that, so the model's totals pin both.
			its, err := predict(prog, steps)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, a.name, err)
			}
			var pin commPin
			for _, it := range its {
				pin.Bytes += it.TotalBytes
				pin.Msgs += simMsgs(it)
			}
			exp.Comm[name+"/"+a.name] = pin
		}
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("bench/testdata/expect.json", append(data, '\n'), 0o644)
}
