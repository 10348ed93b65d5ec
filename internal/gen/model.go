// Package gen is the differential fuzzing harness for the compiler: a
// seeded, deterministic random generator over the internal/lang DSL, a
// machine builder that instantiates generated programs on concrete
// data, two oracles (a brute-force partition enumerator checked against
// the solver, and bit-identity of distributed execution against the
// sequential reference semantics), and a greedy shrinker that minimizes
// failing scenarios to committed regression files.
package gen

import (
	"fmt"
	"sort"
	"strings"

	"autopart/internal/lang"
)

// FieldKind mirrors the DSL's three field kinds.
type FieldKind int

// Field kinds.
const (
	ScalarField FieldKind = iota
	IndexField
	RangeField
)

// Role steers statement generation toward programs the inference pass
// accepts: fields are mostly used according to the role they were
// created with, with a small deliberate violation rate to exercise the
// rejection paths.
type Role int

// Field roles.
const (
	// RoleInput fields are read-only: initialized at machine build and
	// loaded freely (centered or not).
	RoleInput Role = iota
	// RoleOutput fields are centered plain-store targets.
	RoleOutput
	// RoleAccum fields are reduction targets with a fixed operator.
	RoleAccum
)

// Field is one region field of a generated program.
type Field struct {
	Name   string
	Kind   FieldKind
	Target string // pointed-to region, for IndexField and RangeField
	Role   Role
	// Op is the reduction operator of a RoleAccum field ("+=", "max=",
	// "min=", "*=").
	Op string
}

// Region is one region declaration. Size is meaningful only on space
// roots (Space == ""); space sharers inherit the root's extent.
type Region struct {
	Name   string
	Space  string
	Size   int64
	Fields []*Field
}

// FuncSpec is one declared index function with its concrete map. Affine
// functions use f(k) = Stride*k+Offset, wrapped modulo the codomain
// when Total, clamped to it (partial at the edges) otherwise. Table
// functions get seed-derived valid entries, with TablePartial marking
// some entries undefined.
type FuncSpec struct {
	Name, Dom, Cod string
	Affine         bool
	Stride, Offset int64
	Total          bool
	TablePartial   bool
}

// Partial reports whether applying the function can be undefined, which
// forces every generated use under an `if (f(x) in R)` guard.
func (f *FuncSpec) Partial() bool {
	if f.Affine {
		return !f.Total
	}
	return f.TablePartial
}

// ExternFlavor selects how the machine builder realizes an extern
// partition, which determines which asserts are true of it.
type ExternFlavor int

// Extern flavors.
const (
	// FlavorBlock is an equal block partition: disjoint and complete.
	FlavorBlock ExternFlavor = iota
	// FlavorGapped trims each block's tail: disjoint, not complete.
	FlavorGapped
	// FlavorOverlap extends each block by one element: complete, not
	// disjoint (for >1 subregion).
	FlavorOverlap
)

// Extern is one extern partition declaration plus the asserts emitted
// about it.
type Extern struct {
	Name, Region string
	Flavor       ExternFlavor
	AssertDisj   bool
	AssertComp   bool
	// SubsetOf optionally names another extern over the same region
	// asserted as a superset (emitted as `assert Name <= SubsetOf`).
	SubsetOf string
}

// Stmt is one generated loop-body statement.
type Stmt interface{ isStmt() }

// VarBind is `x = <scalar expr>`.
type VarBind struct {
	Var string
	RHS string
}

// Store is `Region[Idx].Field <op> RHS` with op one of =, +=, *=,
// max=, min=.
type Store struct {
	Region, Idx, Field, Op, RHS string
}

// Guard is `if (Cond) { Then } else { Else }`; Else may be empty.
type Guard struct {
	Cond string
	Then []Stmt
	Else []Stmt
}

// Inner is `for Var in RangeRegion[Idx].RangeField { Body }`.
type Inner struct {
	Var, RangeRegion, Idx, RangeField string
	Body                              []Stmt
}

func (VarBind) isStmt() {}
func (Store) isStmt()   {}
func (Guard) isStmt()   {}
func (Inner) isStmt()   {}

// Loop is one top-level for loop.
type Loop struct {
	Var    string
	Region string
	Body   []Stmt
}

// Program is a generated DSL program plus the machine geometry needed
// to instantiate it. It is the unit the shrinker edits.
type Program struct {
	Regions []*Region
	Funcs   []*FuncSpec
	Externs []*Extern
	Loops   []*Loop
}

// RegionByName finds a region declaration.
func (p *Program) RegionByName(name string) *Region {
	for _, r := range p.Regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// SpaceRoot returns the name of the space root of a region (itself when
// it is a root).
func (p *Program) SpaceRoot(name string) string {
	seen := 0
	for cur := p.RegionByName(name); cur != nil && seen < len(p.Regions)+1; seen++ {
		if cur.Space == "" {
			return cur.Name
		}
		cur = p.RegionByName(cur.Space)
	}
	return name
}

// FuncByName finds a function spec.
func (p *Program) FuncByName(name string) *FuncSpec {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Print renders the program as DSL source text.
func (p *Program) Print() string {
	var sb strings.Builder
	for _, r := range p.Regions {
		sb.WriteString("region ")
		sb.WriteString(r.Name)
		if r.Space != "" {
			sb.WriteString(" : ")
			sb.WriteString(r.Space)
		}
		sb.WriteString(" { ")
		for i, f := range r.Fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Name)
			sb.WriteString(": ")
			switch f.Kind {
			case ScalarField:
				sb.WriteString("scalar")
			case IndexField:
				fmt.Fprintf(&sb, "index(%s)", f.Target)
			case RangeField:
				fmt.Fprintf(&sb, "range(%s)", f.Target)
			}
		}
		sb.WriteString(" }\n")
	}
	for _, f := range p.Funcs {
		// The machine realizes partial maps (clamped affine, table gaps)
		// exactly when FuncSpec.Partial(); the declaration must say so,
		// or the solver would be entitled to totality lemmas the runtime
		// map violates.
		marker := ""
		if f.Partial() {
			marker = " partial"
		}
		fmt.Fprintf(&sb, "function %s : %s -> %s%s\n", f.Name, f.Dom, f.Cod, marker)
	}
	for _, e := range p.Externs {
		fmt.Fprintf(&sb, "extern partition %s of %s\n", e.Name, e.Region)
	}
	for _, e := range p.Externs {
		if e.AssertDisj {
			fmt.Fprintf(&sb, "assert disjoint(%s)\n", e.Name)
		}
		if e.AssertComp {
			fmt.Fprintf(&sb, "assert complete(%s, %s)\n", e.Name, e.Region)
		}
		if e.SubsetOf != "" {
			fmt.Fprintf(&sb, "assert %s <= %s\n", e.Name, e.SubsetOf)
		}
	}
	for _, l := range p.Loops {
		fmt.Fprintf(&sb, "for %s in %s {\n", l.Var, l.Region)
		printStmts(&sb, l.Body, "  ")
		sb.WriteString("}\n")
	}
	return sb.String()
}

func printStmts(sb *strings.Builder, stmts []Stmt, indent string) {
	for _, s := range stmts {
		switch st := s.(type) {
		case VarBind:
			fmt.Fprintf(sb, "%s%s = %s\n", indent, st.Var, st.RHS)
		case Store:
			fmt.Fprintf(sb, "%s%s[%s].%s %s %s\n", indent, st.Region, st.Idx, st.Field, st.Op, st.RHS)
		case Guard:
			fmt.Fprintf(sb, "%sif (%s) {\n", indent, st.Cond)
			printStmts(sb, st.Then, indent+"  ")
			if len(st.Else) > 0 {
				fmt.Fprintf(sb, "%s} else {\n", indent)
				printStmts(sb, st.Else, indent+"  ")
			}
			fmt.Fprintf(sb, "%s}\n", indent)
		case Inner:
			fmt.Fprintf(sb, "%sfor %s in %s[%s].%s {\n", indent, st.Var, st.RangeRegion, st.Idx, st.RangeField)
			printStmts(sb, st.Body, indent+"  ")
			fmt.Fprintf(sb, "%s}\n", indent)
		}
	}
}

// Spec carries everything beyond the source text a replay needs: the
// machine geometry and data seed. It round-trips through `#gen`
// directive comments so shrunk reproducers are self-contained .dsl
// files.
type Spec struct {
	// Sizes maps each space-root region to its extent.
	Sizes map[string]int64
	// DataSeed derives all concrete field data and table-map entries.
	DataSeed int64
	// Nodes is the partition color count the oracles run at.
	Nodes int
	// Steps is the main-loop iteration count of the exec oracle.
	Steps int
}

// Directives renders the spec as `#gen` comment lines.
func (s Spec) Directives() string {
	var sb strings.Builder
	roots := make([]string, 0, len(s.Sizes))
	for r := range s.Sizes {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	sb.WriteString("#gen sizes")
	for _, r := range roots {
		fmt.Fprintf(&sb, " %s=%d", r, s.Sizes[r])
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "#gen dataseed %d\n", s.DataSeed)
	fmt.Fprintf(&sb, "#gen nodes %d\n", s.Nodes)
	fmt.Fprintf(&sb, "#gen steps %d\n", s.Steps)
	return sb.String()
}

// ParseSpec extracts `#gen` directives from a .dsl file's text. Lines
// that are not directives are left for the DSL frontend (which skips
// all `#` comments anyway, so the full text stays compilable).
func ParseSpec(text string) (Spec, error) {
	spec := Spec{Sizes: map[string]int64{}, Nodes: 2, Steps: 1}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "#gen ") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "#gen "))
		if len(fields) == 0 {
			return spec, fmt.Errorf("line %d: empty #gen directive", ln+1)
		}
		switch fields[0] {
		case "sizes":
			for _, kv := range fields[1:] {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					return spec, fmt.Errorf("line %d: bad size %q", ln+1, kv)
				}
				var n int64
				if _, err := fmt.Sscanf(kv[eq+1:], "%d", &n); err != nil {
					return spec, fmt.Errorf("line %d: bad size %q", ln+1, kv)
				}
				spec.Sizes[kv[:eq]] = n
			}
		case "dataseed":
			if len(fields) != 2 {
				return spec, fmt.Errorf("line %d: dataseed wants one value", ln+1)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &spec.DataSeed); err != nil {
				return spec, fmt.Errorf("line %d: bad dataseed %q", ln+1, fields[1])
			}
		case "nodes":
			if _, err := fmt.Sscanf(fields[1], "%d", &spec.Nodes); err != nil {
				return spec, fmt.Errorf("line %d: bad nodes", ln+1)
			}
		case "steps":
			if _, err := fmt.Sscanf(fields[1], "%d", &spec.Steps); err != nil {
				return spec, fmt.Errorf("line %d: bad steps", ln+1)
			}
		case "expect", "func", "extern":
			// Handled by Expectation and ParseRepro, not the spec.
		default:
			return spec, fmt.Errorf("line %d: unknown #gen directive %q", ln+1, fields[0])
		}
	}
	return spec, nil
}

// Scenario is one generated test case: the structured program (for
// shrinking), its printed source, and the machine spec.
type Scenario struct {
	Seed int64
	Prog *Program
	Src  string
	Spec Spec
}

// Repro renders a scenario as a self-contained .dsl reproducer: the
// DSL source carries the program, while `#gen` directives carry the
// machine realization the source cannot express (sizes, data seed, how
// each function and extern partition is concretely realized).
func (sc *Scenario) Repro() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# generated by internal/gen (seed %d)\n", sc.Seed)
	sb.WriteString(sc.Spec.Directives())
	for _, f := range sc.Prog.Funcs {
		if f.Affine {
			kind := "total"
			if !f.Total {
				kind = "clamped"
			}
			fmt.Fprintf(&sb, "#gen func %s affine %d %d %s\n", f.Name, f.Stride, f.Offset, kind)
		} else {
			kind := "total"
			if f.TablePartial {
				kind = "partial"
			}
			fmt.Fprintf(&sb, "#gen func %s table %s\n", f.Name, kind)
		}
	}
	for _, e := range sc.Prog.Externs {
		flavor := "block"
		switch e.Flavor {
		case FlavorGapped:
			flavor = "gapped"
		case FlavorOverlap:
			flavor = "overlap"
		}
		fmt.Fprintf(&sb, "#gen extern %s %s\n", e.Name, flavor)
	}
	sb.WriteString(sc.Src)
	return sb.String()
}

// ParseRepro reconstructs a runnable scenario from a reproducer file:
// the DSL text supplies the program structure, the `#gen` directives
// the machine realization. The returned scenario's Prog holds only what
// BuildMachine consumes (regions, functions, externs); loops live in
// Src, which the oracles compile directly.
func ParseRepro(text string) (*Scenario, error) {
	spec, err := ParseSpec(text)
	if err != nil {
		return nil, err
	}
	ast, err := lang.ParseSource(text)
	if err != nil {
		return nil, fmt.Errorf("reproducer source: %w", err)
	}
	funcReal := map[string][]string{}
	externReal := map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "#gen ") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "#gen "))
		switch fields[0] {
		case "func":
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: short func directive", ln+1)
			}
			funcReal[fields[1]] = fields[2:]
		case "extern":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: extern directive wants name and flavor", ln+1)
			}
			externReal[fields[1]] = fields[2]
		}
	}

	prog := &Program{}
	for _, rd := range ast.Regions {
		r := &Region{Name: rd.Name, Space: rd.Space}
		for _, fd := range rd.Fields {
			kind := ScalarField
			switch fd.Kind {
			case lang.IndexKind:
				kind = IndexField
			case lang.RangeKind:
				kind = RangeField
			}
			r.Fields = append(r.Fields, &Field{Name: fd.Name, Kind: kind, Target: fd.Target})
		}
		prog.Regions = append(prog.Regions, r)
	}
	for _, r := range prog.Regions {
		if r.Space == "" {
			r.Size = spec.Sizes[r.Name]
			if r.Size <= 0 {
				return nil, fmt.Errorf("reproducer: no size for space root %s", r.Name)
			}
		}
	}
	for _, fd := range ast.Funcs {
		fs := &FuncSpec{Name: fd.Name, Dom: fd.From, Cod: fd.To}
		real, ok := funcReal[fd.Name]
		if !ok {
			return nil, fmt.Errorf("reproducer: no #gen func directive for %s", fd.Name)
		}
		switch real[0] {
		case "affine":
			if len(real) != 4 {
				return nil, fmt.Errorf("reproducer: func %s: affine wants stride, offset, kind", fd.Name)
			}
			fs.Affine = true
			if _, err := fmt.Sscanf(real[1], "%d", &fs.Stride); err != nil {
				return nil, fmt.Errorf("reproducer: func %s: bad stride %q", fd.Name, real[1])
			}
			if _, err := fmt.Sscanf(real[2], "%d", &fs.Offset); err != nil {
				return nil, fmt.Errorf("reproducer: func %s: bad offset %q", fd.Name, real[2])
			}
			fs.Total = real[3] == "total"
		case "table":
			if len(real) != 2 {
				return nil, fmt.Errorf("reproducer: func %s: table wants kind", fd.Name)
			}
			fs.TablePartial = real[1] == "partial"
		default:
			return nil, fmt.Errorf("reproducer: func %s: unknown realization %q", fd.Name, real[0])
		}
		// The declaration's partiality must match the realization, or the
		// reproducer would test a different program than it claims.
		if fs.Partial() != fd.Partial {
			return nil, fmt.Errorf("reproducer: func %s: declared partial=%v but realized partial=%v", fd.Name, fd.Partial, fs.Partial())
		}
		prog.Funcs = append(prog.Funcs, fs)
	}
	for _, ed := range ast.Externs {
		flavorName, ok := externReal[ed.Name]
		if !ok {
			return nil, fmt.Errorf("reproducer: no #gen extern directive for %s", ed.Name)
		}
		flavor := FlavorBlock
		switch flavorName {
		case "block":
		case "gapped":
			flavor = FlavorGapped
		case "overlap":
			flavor = FlavorOverlap
		default:
			return nil, fmt.Errorf("reproducer: extern %s: unknown flavor %q", ed.Name, flavorName)
		}
		prog.Externs = append(prog.Externs, &Extern{Name: ed.Name, Region: ed.Region, Flavor: flavor})
	}
	return &Scenario{Prog: prog, Src: text, Spec: spec}, nil
}

// Expectation extracts the `#gen expect` directive of a reproducer:
// ("ok", "") for programs that must compile and pass all oracles, or
// ("reject", CODE) for programs that must be rejected with a specific
// diagnostic. Empty verdict means no directive present.
func Expectation(text string) (verdict, code string) {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) >= 3 && fields[0] == "#gen" && fields[1] == "expect" {
			if fields[2] == "reject" && len(fields) >= 4 {
				return "reject", fields[3]
			}
			return fields[2], ""
		}
	}
	return "", ""
}
