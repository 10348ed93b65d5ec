package ir

import (
	"fmt"
	"hash/fnv"

	"autopart/internal/geometry"
	"autopart/internal/region"
)

// Machine binds the runtime entities a loop executes against: concrete
// regions, the declared index functions, and any extern partitions
// referenced by guards.
type Machine struct {
	Regions    map[string]*region.Region
	Funcs      map[string]geometry.IndexMap
	Partitions map[string]*region.Partition
}

// NewMachine creates an empty machine.
func NewMachine() *Machine {
	return &Machine{
		Regions:    map[string]*region.Region{},
		Funcs:      map[string]geometry.IndexMap{},
		Partitions: map[string]*region.Partition{},
	}
}

// Clone returns a machine holding a deep copy of every region's data and
// sharing the immutable funcs and extern partitions.
func (m *Machine) Clone() *Machine {
	out := &Machine{Regions: make(map[string]*region.Region, len(m.Regions)), Funcs: m.Funcs, Partitions: m.Partitions}
	for name, r := range m.Regions {
		out.Regions[name] = r.CloneData()
	}
	return out
}

// AddRegion registers a region under its name.
func (m *Machine) AddRegion(r *region.Region) *Machine {
	m.Regions[r.Name()] = r
	return m
}

// AddFunc registers an index function.
func (m *Machine) AddFunc(name string, f geometry.IndexMap) *Machine {
	m.Funcs[name] = f
	return m
}

// AddPartition registers an extern partition for guard membership tests.
func (m *Machine) AddPartition(name string, p *region.Partition) *Machine {
	m.Partitions[name] = p
	return m
}

// Value is a runtime value: a scalar or an index. An index may be
// invalid (out of a partial function's domain); using an invalid index in
// an access is an error, but guards may test it.
type Value struct {
	IsIndex bool
	Valid   bool
	F       float64
	I       int64
}

// ScalarValue makes a scalar value.
func ScalarValue(f float64) Value { return Value{F: f, Valid: true} }

// IndexValue makes a valid index value.
func IndexValue(i int64) Value { return Value{IsIndex: true, Valid: true, I: i} }

// InvalidIndex is the result of applying a partial index function outside
// its domain.
func InvalidIndex() Value { return Value{IsIndex: true} }

// AsScalar converts for use in arithmetic: indices coerce to their
// numeric value.
func (v Value) AsScalar() float64 {
	if v.IsIndex {
		return float64(v.I)
	}
	return v.F
}

// Env is a variable environment for one loop iteration.
type Env map[string]Value

// RunSequential executes the loop with sequential semantics: iterations
// in ascending index order over the loop region's full index space. This
// is the semantic reference that parallel executions must reproduce.
func (m *Machine) RunSequential(l *Loop) error {
	r, ok := m.Regions[l.Region]
	if !ok {
		return fmt.Errorf("ir: unknown loop region %q", l.Region)
	}
	var runErr error
	r.Space().Each(func(k int64) bool {
		env := Env{l.Var: IndexValue(k)}
		if err := m.RunBody(l.Stmts, env); err != nil {
			runErr = fmt.Errorf("iteration %d: %w", k, err)
			return false
		}
		return true
	})
	return runErr
}

// RunIteration executes one iteration of the loop at index k (used by
// parallel executors that drive iterations from subregions).
func (m *Machine) RunIteration(l *Loop, k int64) error {
	env := Env{l.Var: IndexValue(k)}
	return m.RunBody(l.Stmts, env)
}

// RunBody executes a statement list under an environment.
func (m *Machine) RunBody(stmts []Stmt, env Env) error {
	for _, s := range stmts {
		if err := m.step(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) step(s Stmt, env Env) error {
	switch st := s.(type) {
	case *Load:
		k, err := m.indexOf(env, st.Idx)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		r := m.Regions[st.Region]
		if r == nil {
			return fmt.Errorf("%s: unknown region", st)
		}
		if k < 0 || k >= r.Size() {
			return fmt.Errorf("%s: index %d out of range [0,%d)", st, k, r.Size())
		}
		kind, _ := r.FieldKindOf(st.Field)
		switch kind {
		case region.ScalarField:
			env[st.Var] = ScalarValue(r.Scalar(st.Field)[k])
		case region.IndexField:
			v := r.Index(st.Field)[k]
			if v < 0 {
				env[st.Var] = InvalidIndex()
			} else {
				env[st.Var] = IndexValue(v)
			}
		default:
			return fmt.Errorf("%s: cannot load range field", st)
		}
		return nil

	case *Store:
		k, err := m.indexOf(env, st.Idx)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		r := m.Regions[st.Region]
		if r == nil {
			return fmt.Errorf("%s: unknown region", st)
		}
		if k < 0 || k >= r.Size() {
			return fmt.Errorf("%s: index %d out of range [0,%d)", st, k, r.Size())
		}
		rhs, err := m.scalar(st.Rhs, env)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		kind, _ := r.FieldKindOf(st.Field)
		if kind == region.IndexField {
			// Stores to pointer fields rebind the pointer (Fig. 4 line 5).
			r.Index(st.Field)[k] = int64(rhs)
			return nil
		}
		slot := &r.Scalar(st.Field)[k]
		*slot = ApplyReduce(string(st.Op), *slot, rhs)
		return nil

	case *LetScalar:
		v, err := m.scalar(st.Rhs, env)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		env[st.Var] = ScalarValue(v)
		return nil

	case *Apply:
		f, ok := m.Funcs[st.Func]
		if !ok {
			return fmt.Errorf("%s: unknown index function", st)
		}
		arg, err := m.indexOf(env, st.Arg)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		if v, ok := f.Apply(arg); ok {
			env[st.Var] = IndexValue(v)
		} else {
			env[st.Var] = InvalidIndex()
		}
		return nil

	case *Alias:
		v, ok := env[st.Src]
		if !ok {
			return fmt.Errorf("%s: unbound source", st)
		}
		env[st.Var] = v
		return nil

	case *Inner:
		k, err := m.indexOf(env, st.Idx)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		r := m.Regions[st.RangeRegion]
		if r == nil {
			return fmt.Errorf("%s: unknown region", st)
		}
		iv := r.Ranges(st.RangeField)[k]
		for j := iv.Lo; j < iv.Hi; j++ {
			env[st.Var] = IndexValue(j)
			if err := m.RunBody(st.Body, env); err != nil {
				return err
			}
		}
		return nil

	case *IfIn:
		v, ok := env[st.Idx]
		if !ok {
			return fmt.Errorf("%s: unbound index", st)
		}
		in := false
		if v.Valid {
			if r, isRegion := m.Regions[st.Space]; isRegion {
				in = v.I >= 0 && v.I < r.Size()
			} else if p, isPart := m.Partitions[st.Space]; isPart {
				in = p.UnionAll().Contains(v.I)
			} else {
				return fmt.Errorf("%s: unknown space", st)
			}
		}
		if in {
			return m.RunBody(st.Then, env)
		}
		return m.RunBody(st.Else, env)

	case *IfCmp:
		l, err := m.scalar(st.L, env)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		r, err := m.scalar(st.R, env)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		var cond bool
		switch st.Op {
		case "==":
			cond = l == r
		case "!=":
			cond = l != r
		default:
			return fmt.Errorf("%s: unknown comparison", st)
		}
		if cond {
			return m.RunBody(st.Then, env)
		}
		return m.RunBody(st.Else, env)

	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

func (m *Machine) indexOf(env Env, name string) (int64, error) {
	v, ok := env[name]
	if !ok {
		return 0, fmt.Errorf("unbound variable %q", name)
	}
	if !v.IsIndex {
		return 0, fmt.Errorf("variable %q is not an index", name)
	}
	if !v.Valid {
		return 0, fmt.Errorf("variable %q holds an invalid index (partial function applied outside its domain)", name)
	}
	return v.I, nil
}

func (m *Machine) scalar(e ScalarExpr, env Env) (float64, error) {
	switch x := e.(type) {
	case Const:
		return x.V, nil
	case VarExpr:
		v, ok := env[x.Name]
		if !ok {
			return 0, fmt.Errorf("unbound variable %q", x.Name)
		}
		return v.AsScalar(), nil
	case CallExpr:
		args := make([]float64, len(x.Args))
		for i, a := range x.Args {
			v, err := m.scalar(a, env)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return OpaqueFn(x.Func, args), nil
	case BinExpr:
		l, err := m.scalar(x.L, env)
		if err != nil {
			return 0, err
		}
		r, err := m.scalar(x.R, env)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, nil
			}
			return l / r, nil
		default:
			return 0, fmt.Errorf("unknown operator %q", x.Op)
		}
	default:
		return 0, fmt.Errorf("unknown scalar expression %T", e)
	}
}

// ApplyReduce applies an assignment operator: "=" overwrites, the others
// fold. Reduction operators are associative and commutative so parallel
// executions may apply contributions in any grouping; to keep
// differential tests exact we stick to values that are exactly
// representable.
func ApplyReduce(op string, old, contrib float64) float64 {
	switch op {
	case "=":
		return contrib
	case "+=":
		return old + contrib
	case "*=":
		return old * contrib
	case "max=":
		if contrib > old {
			return contrib
		}
		return old
	case "min=":
		if contrib < old {
			return contrib
		}
		return old
	default:
		panic(fmt.Sprintf("unknown reduction operator %q", op))
	}
}

// ReduceIdentity returns the identity element of a reduction operator
// (used to initialize reduction buffers).
func ReduceIdentity(op string) float64 {
	switch op {
	case "+=":
		return 0
	case "*=":
		return 1
	case "max=":
		return negInf
	case "min=":
		return posInf
	default:
		panic(fmt.Sprintf("reduction operator %q has no identity", op))
	}
}

var (
	posInf = inf(1)
	negInf = inf(-1)
)

func inf(sign int) float64 {
	// Avoid importing math for two constants.
	v := float64(sign)
	for i := 0; i < 2000; i++ {
		v *= 2
	}
	return v
}

// OpaqueFn is the deterministic semantics of opaque scalar functions
// (the f and g of Fig. 1a). The value is an integer-valued mixing of the
// function name and arguments so that reductions stay exact under
// reassociation in parallel executions.
func OpaqueFn(name string, args []float64) float64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	seed := int64(h.Sum32() % 97)
	acc := seed
	for i, a := range args {
		// Truncate arguments to integers and mix; stays well within the
		// exact integer range of float64 for test-sized data.
		acc = acc*3 + int64(a)*(int64(i)+2)
		acc %= 1000003
		if acc < 0 {
			acc += 1000003
		}
	}
	return float64(acc % 4093)
}

// OpaqueSeed, OpaqueMix and OpaqueValue compute OpaqueFn one argument at
// a time, for an executor that resolves the function name once and mixes
// the arguments as it evaluates them: OpaqueFn(name, args) equals
// OpaqueValue of OpaqueSeed(name) mixed with every args[i] in order.
func OpaqueSeed(name string) int64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int64(h.Sum32() % 97)
}

// OpaqueMix folds argument i, with value a, into acc.
func OpaqueMix(acc int64, i int, a float64) int64 {
	acc = acc*3 + int64(a)*(int64(i)+2)
	acc %= 1000003
	if acc < 0 {
		acc += 1000003
	}
	return acc
}

// OpaqueValue is the function value of a fully mixed acc.
func OpaqueValue(acc int64) float64 { return float64(acc % 4093) }
