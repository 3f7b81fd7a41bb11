package grid

import (
	"fmt"
	"strconv"
	"strings"

	"dynloop/internal/spec"
	"dynloop/internal/workload"
)

// Spec declares an experiment grid: which per-cell analysis runs (Kind)
// and the axes it is swept over. Zero-valued axes resolve to the kind's
// canonical defaults (and, for budget/seed/CLS, to the Config of the
// run), so the JSON form stays as small as the question being asked:
//
//	{"kind": "spec", "benchmarks": ["swim"], "seeds": [1,2,3],
//	 "tus": [3,5,6], "policies": ["str"]}
//
// is a seed sweep at machine sizes the paper never ran. Specs are data:
// they validate (Validate), expand deterministically (Compile), execute
// (Run) and render (RenderResult) the same way whether they come from
// the built-in registry, a CLI -spec file or a POST /v1/grid body.
type Spec struct {
	// Name identifies a registered grid ("table1", "fig7",
	// "ablation/cls"); empty for ad-hoc specs.
	Name string `json:"name,omitempty"`
	// Title heads the rendered output (a default is derived when empty).
	Title string `json:"title,omitempty"`
	// Kind selects the per-cell analysis; see Kinds. Empty means "spec"
	// (the speculation engine, the paper's workhorse cell).
	Kind string `json:"kind,omitempty"`

	// Benchmarks are the workloads to grid over (nil = the Config's
	// subset, itself defaulting to all 18).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Budgets are absolute per-benchmark instruction budgets; the value
	// 0 (and a nil axis) means the Config's budget.
	Budgets []uint64 `json:"budgets,omitempty"`
	// BudgetDivs divides each budget (Figure 5 compares the full budget
	// against a quarter of it: [1, 4]). Nil means [1].
	BudgetDivs []int `json:"budget_divs,omitempty"`
	// Seeds are workload input seeds; 0 (and nil) means the Config's.
	Seeds []uint64 `json:"seeds,omitempty"`
	// CLS are Current-Loop-Stack capacities; 0 (and nil) means the
	// Config's (which defaults to the paper's 16), negative means
	// unbounded.
	CLS []int `json:"cls,omitempty"`
	// TableSizes are LET/LIT table capacities (kinds fig4 and
	// replacement).
	TableSizes []int `json:"table_sizes,omitempty"`
	// Modes are replacement policies for kind replacement: "lru",
	// "nest".
	Modes []string `json:"modes,omitempty"`
	// Policies are speculation policies for kind spec: idle, str, strN
	// (the canonical forms IDLE, STR, STR(N) are accepted too).
	Policies []string `json:"policies,omitempty"`
	// TUs are machine sizes for kind spec; 0 is the infinite machine of
	// Figure 5. Nil means [4], the paper's Table 2 machine.
	TUs []int `json:"tus,omitempty"`
	// LETCaps bound the engine's iteration-count LET for kind spec
	// (0 = unbounded). Nil means [0].
	LETCaps []int `json:"let_caps,omitempty"`
	// NestRules select the STR(i) interpretation for kind spec:
	// "starvation" (default), "static".
	NestRules []string `json:"nest_rules,omitempty"`
	// Exclusion sweeps the §2.3.2 exclusion table for kind spec. Nil
	// means [off].
	Exclusion []ExclusionSpec `json:"exclusion,omitempty"`

	// Render selects the output layout for the generic renderer.
	// Registered grids ignore it (their section renderer wins) unless a
	// format is set explicitly.
	Render Layout `json:"render,omitempty"`
}

// ExclusionSpec is one point of the exclusion-table axis.
type ExclusionSpec struct {
	// Enabled turns the §2.3.2 exclusion table on for this point.
	Enabled bool `json:"enabled,omitempty"`
	// Threshold is the accuracy below which a loop is excluded
	// (0 = the engine default 0.5).
	Threshold float64 `json:"threshold,omitempty"`
	// MinResolved is the resolved-thread count required before a loop
	// can be judged (0 = the engine default 8).
	MinResolved int `json:"min_resolved,omitempty"`
	// Capacity bounds the exclusion table (0 = the engine default 16).
	Capacity int `json:"capacity,omitempty"`
}

// Layout selects how the generic renderer formats a grid result.
type Layout struct {
	// Format is "table" (default), "csv" or "json".
	Format string `json:"format,omitempty"`
	// Metrics selects and orders the value columns; nil picks the
	// kind's default set. See KindMetrics.
	Metrics []string `json:"metrics,omitempty"`
}

// Kinds names every per-cell analysis a Spec can grid over, in a
// stable order. The names double as cell-key tags and map one-to-one
// onto the registered codec result types, so a grid cell persists and
// serves under exactly the key and frame its pre-grid driver used.
func Kinds() []string {
	return []string{
		"spec", "table1", "fig4", "fig8", "clssize",
		"replacement", "oneshots", "branchpred", "taskpred", "oracle",
	}
}

// Axis-size and value bounds enforced by Validate. They exist so a
// hostile or fat-fingered spec fails fast with a clear error instead of
// compiling into an absurd grid; the serving layer additionally applies
// its own MaxCells guard to the resolved size.
const (
	maxAxisLen   = 4096
	maxCells     = 1 << 22
	maxBudget    = 1 << 40
	maxDiv       = 1 << 20
	maxTUs       = 1 << 16
	maxCLS       = 1 << 16
	maxTableSize = 1 << 20
	maxLETCap    = 1 << 20
	maxNameLen   = 128
	maxTitleLen  = 256
)

// kindAxes says which optional axes apply to each kind; the base axes
// (benchmarks, budgets, budget_divs, seeds, cls) apply to all.
var kindAxes = map[string]struct {
	sizes, modes, engine bool // table_sizes; modes; policies/tus/let_caps/nest_rules/exclusion
}{
	"spec":        {engine: true},
	"table1":      {},
	"fig4":        {sizes: true},
	"fig8":        {},
	"clssize":     {},
	"replacement": {sizes: true, modes: true},
	"oneshots":    {},
	"branchpred":  {},
	"taskpred":    {},
	"oracle":      {},
}

// kind resolves the spec's kind name.
func (s *Spec) kind() string {
	if s.Kind == "" {
		return "spec"
	}
	return strings.ToLower(strings.TrimSpace(s.Kind))
}

// ParsePolicy turns a policy name into a spec.Policy. It accepts the
// CLI forms (idle, str, str3) and the paper's canonical forms (IDLE,
// STR, STR(3)), case-insensitively.
func ParsePolicy(name string) (spec.Policy, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	switch n {
	case "idle":
		return spec.Idle(), nil
	case "str":
		return spec.STR(), nil
	}
	if rest, ok := strings.CutPrefix(n, "str"); ok {
		rest = strings.TrimSuffix(strings.TrimPrefix(rest, "("), ")")
		if i, err := strconv.Atoi(rest); err == nil && i > 0 && i <= maxTUs {
			return spec.STRn(i), nil
		}
	}
	return spec.Policy{}, fmt.Errorf("unknown policy %q (idle|str|strN)", name)
}

// ParsePolicies parses a list of policy names.
func ParsePolicies(names []string) ([]spec.Policy, error) {
	out := make([]spec.Policy, 0, len(names))
	for _, name := range names {
		pol, err := ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		out = append(out, pol)
	}
	return out, nil
}

func parseNestRule(name string) (spec.NestRule, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "starvation":
		return spec.NestRuleStarvation, nil
	case "static":
		return spec.NestRuleStatic, nil
	default:
		return 0, fmt.Errorf("unknown nest rule %q (starvation|static)", name)
	}
}

func axisLen(what string, n int) error {
	if n > maxAxisLen {
		return fmt.Errorf("grid: %s axis has %d entries (max %d)", what, n, maxAxisLen)
	}
	return nil
}

// Validate checks the spec's kind, axis applicability and every axis
// value against the documented bounds. It never panics on any input;
// the FuzzSpecValidate fuzzer pins that.
func (s *Spec) Validate() error {
	if len(s.Name) > maxNameLen {
		return fmt.Errorf("grid: name longer than %d bytes", maxNameLen)
	}
	if len(s.Title) > maxTitleLen {
		return fmt.Errorf("grid: title longer than %d bytes", maxTitleLen)
	}
	kind := s.kind()
	axes, ok := kindAxes[kind]
	if !ok {
		return fmt.Errorf("grid: unknown kind %q (one of %s)", s.Kind, strings.Join(Kinds(), "|"))
	}
	for _, c := range []struct {
		what string
		n    int
	}{
		{"benchmarks", len(s.Benchmarks)}, {"budgets", len(s.Budgets)},
		{"budget_divs", len(s.BudgetDivs)}, {"seeds", len(s.Seeds)},
		{"cls", len(s.CLS)}, {"table_sizes", len(s.TableSizes)},
		{"modes", len(s.Modes)}, {"policies", len(s.Policies)},
		{"tus", len(s.TUs)}, {"let_caps", len(s.LETCaps)},
		{"nest_rules", len(s.NestRules)}, {"exclusion", len(s.Exclusion)},
	} {
		if err := axisLen(c.what, c.n); err != nil {
			return err
		}
	}
	if !axes.sizes && len(s.TableSizes) > 0 {
		return fmt.Errorf("grid: kind %q takes no table_sizes axis", kind)
	}
	if !axes.modes && len(s.Modes) > 0 {
		return fmt.Errorf("grid: kind %q takes no modes axis", kind)
	}
	if !axes.engine {
		for _, c := range []struct {
			what string
			n    int
		}{
			{"policies", len(s.Policies)}, {"tus", len(s.TUs)},
			{"let_caps", len(s.LETCaps)}, {"nest_rules", len(s.NestRules)},
			{"exclusion", len(s.Exclusion)},
		} {
			if c.n > 0 {
				return fmt.Errorf("grid: kind %q takes no %s axis", kind, c.what)
			}
		}
	}
	for _, b := range s.Budgets {
		if b > maxBudget {
			return fmt.Errorf("grid: budget %d out of range (max %d)", b, uint64(maxBudget))
		}
	}
	for _, d := range s.BudgetDivs {
		if d < 1 || d > maxDiv {
			return fmt.Errorf("grid: budget_div %d out of range [1,%d]", d, maxDiv)
		}
	}
	for _, c := range s.CLS {
		if c < -1 || c > maxCLS {
			return fmt.Errorf("grid: cls capacity %d out of range [-1,%d]", c, maxCLS)
		}
	}
	for _, sz := range s.TableSizes {
		if sz < 1 || sz > maxTableSize {
			return fmt.Errorf("grid: table_size %d out of range [1,%d]", sz, maxTableSize)
		}
	}
	for _, m := range s.Modes {
		if m != "lru" && m != "nest" {
			return fmt.Errorf("grid: unknown replacement mode %q (lru|nest)", m)
		}
	}
	for _, p := range s.Policies {
		if _, err := ParsePolicy(p); err != nil {
			return fmt.Errorf("grid: %v", err)
		}
	}
	for _, k := range s.TUs {
		if k < 0 || k > maxTUs {
			return fmt.Errorf("grid: TU count %d out of range [0,%d]", k, maxTUs)
		}
	}
	for _, c := range s.LETCaps {
		if c < 0 || c > maxLETCap {
			return fmt.Errorf("grid: let_cap %d out of range [0,%d]", c, maxLETCap)
		}
	}
	for _, nr := range s.NestRules {
		if _, err := parseNestRule(nr); err != nil {
			return fmt.Errorf("grid: %v", err)
		}
	}
	for _, ex := range s.Exclusion {
		if ex.Threshold < 0 || ex.Threshold > 1 {
			return fmt.Errorf("grid: exclusion threshold %v out of range [0,1]", ex.Threshold)
		}
		if ex.MinResolved < 0 || ex.MinResolved > maxLETCap {
			return fmt.Errorf("grid: exclusion min_resolved %d out of range [0,%d]", ex.MinResolved, maxLETCap)
		}
		if ex.Capacity < 0 || ex.Capacity > maxLETCap {
			return fmt.Errorf("grid: exclusion capacity %d out of range [0,%d]", ex.Capacity, maxLETCap)
		}
		if !ex.Enabled && (ex.Threshold != 0 || ex.MinResolved != 0 || ex.Capacity != 0) {
			return fmt.Errorf("grid: disabled exclusion point carries parameters %+v", ex)
		}
	}
	switch s.Render.Format {
	case "", "table", "csv", "json":
	default:
		return fmt.Errorf("grid: unknown render format %q (table|csv|json)", s.Render.Format)
	}
	if len(s.Render.Metrics) > maxAxisLen {
		return fmt.Errorf("grid: render metrics list too long")
	}
	if len(s.Render.Metrics) > 0 {
		known := kindMetricNames(kind)
		for _, m := range s.Render.Metrics {
			if !known[m] {
				return fmt.Errorf("grid: kind %q has no metric %q", kind, m)
			}
		}
	}
	if n := s.size(); n > maxCells {
		return fmt.Errorf("grid: spec expands to %d cells (max %d)", n, maxCells)
	}
	return nil
}

// axisOr returns the axis or its default.
func axisOr[T any](axis, def []T) []T {
	if len(axis) > 0 {
		return axis
	}
	return def
}

// resolve fills every defaulted axis in, normalises policy and
// nest-rule names to their canonical forms, and resolves the benchmark
// axis against cfg. The returned spec expands to exactly the cells
// Compile builds, in the same order — clients rebuild a Result from a
// remote value stream with it.
func (s Spec) resolve(cfg Config) (Spec, error) {
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	kind := s.kind()
	s.Kind = kind
	if len(s.Benchmarks) == 0 {
		names, err := cfg.benchmarks()
		if err != nil {
			return Spec{}, err
		}
		s.Benchmarks = names
	}
	s.Budgets = axisOr(s.Budgets, []uint64{0})
	s.BudgetDivs = axisOr(s.BudgetDivs, []int{1})
	s.Seeds = axisOr(s.Seeds, []uint64{0})
	s.CLS = axisOr(s.CLS, defaultCLS(kind))
	axes := kindAxes[kind]
	if axes.sizes {
		s.TableSizes = axisOr(s.TableSizes, defaultSizes(kind))
	}
	if axes.modes {
		s.Modes = axisOr(s.Modes, []string{"lru", "nest"})
	}
	if axes.engine {
		// Clone before normalising: callers (the registry, drivers
		// overriding a canonical spec) share the axis backing arrays.
		s.Policies = append([]string(nil), axisOr(s.Policies, []string{"STR(3)"})...)
		for i, p := range s.Policies {
			pol, err := ParsePolicy(p)
			if err != nil {
				return Spec{}, err
			}
			s.Policies[i] = pol.String()
		}
		s.TUs = axisOr(s.TUs, []int{4})
		s.LETCaps = axisOr(s.LETCaps, []int{0})
		s.NestRules = append([]string(nil), axisOr(s.NestRules, []string{"starvation"})...)
		for i, nr := range s.NestRules {
			if _, err := parseNestRule(nr); err != nil {
				return Spec{}, err
			}
			if strings.TrimSpace(nr) == "" {
				s.NestRules[i] = "starvation"
			} else {
				s.NestRules[i] = strings.ToLower(strings.TrimSpace(nr))
			}
		}
		s.Exclusion = axisOr(s.Exclusion, []ExclusionSpec{{}})
	}
	return s, nil
}

func defaultCLS(kind string) []int {
	if kind == "clssize" {
		// The CLS-capacity ablation's point is the capacity sweep.
		return []int{2, 4, 8, 16}
	}
	return []int{0}
}

func defaultSizes(kind string) []int {
	if kind == "replacement" {
		return []int{2, 4, 8}
	}
	return []int{2, 4, 8, 16} // fig4
}

// size multiplies the axis lengths with every default applied,
// saturating at maxCells+1 so callers can range-check without overflow.
func (s Spec) size() uint64 {
	kind := s.kind()
	axes := kindAxes[kind]
	n := uint64(1)
	mul := func(axis, def int) {
		if axis == 0 {
			axis = def
		}
		if axis == 0 {
			axis = 1
		}
		n *= uint64(axis)
		if n > maxCells {
			n = maxCells + 1
		}
	}
	mul(len(s.Benchmarks), workload.Count())
	mul(len(s.Budgets), 1)
	mul(len(s.BudgetDivs), 1)
	mul(len(s.Seeds), 1)
	mul(len(s.CLS), len(defaultCLS(kind)))
	if axes.sizes {
		mul(len(s.TableSizes), len(defaultSizes(kind)))
	}
	if axes.modes {
		mul(len(s.Modes), 2)
	}
	if axes.engine {
		mul(len(s.Policies), 1)
		mul(len(s.TUs), 1)
		mul(len(s.LETCaps), 1)
		mul(len(s.NestRules), 1)
		mul(len(s.Exclusion), 1)
	}
	return n
}

// Size reports how many cells the spec expands to under cfg, for
// progress displays and the serving layer's MaxCells guard. A
// registered grid already compiled under cfg reports its memoized
// cells (see Compile).
func (s Spec) Size(cfg Config) (int, error) {
	if k, ok := memoKeyOf(&cfg, &s); ok {
		if e, ok := memoGet(k); ok {
			return len(e.cells), nil
		}
	}
	r, err := s.resolve(cfg)
	if err != nil {
		return 0, err
	}
	return int(r.size()), nil
}
