package grid

import (
	"fmt"
	"strings"

	"dynloop/internal/harness"
	"dynloop/internal/spec"
)

// referenceCellKey is the cell-key formula every persisted result was
// stored under: fmt's %v of each part, length-prefixed. Config.cellKey
// must reproduce it byte for byte.
func referenceCellKey(c Config, parts ...any) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|b%d|s%d|cls%d|ba%d", CellSchemaVersion, c.budget(), c.seed(), c.CLSCapacity, c.BatchSize)
	for _, p := range parts {
		s := fmt.Sprint(p)
		fmt.Fprintf(&b, "|%d:%s", len(s), s)
	}
	return b.String()
}

// referenceGroupKey is the fusion-group formula Coord.groupKey must
// reproduce.
func referenceGroupKey(bench string, budget, seed uint64, batchSize int) string {
	return fmt.Sprintf("g|%d:%s|b%d|s%d|ba%d", len(bench), bench, budget, seed, batchSize)
}

// checkCellKeys rebuilds each cell's key, label and group key from its
// Coord and the spec's kind with the reference formulas, passing every
// part as the type the pre-grid drivers keyed it with (a spec.Policy, a
// spec.NestRule), and reports the first cell that differs.
func checkCellKeys(kind string, batchSize int, cells []Cell) error {
	for i := range cells {
		c := &cells[i]
		co := c.Coord
		cfg := Config{Budget: co.Budget, Seed: co.Seed, CLSCapacity: co.CLS, BatchSize: batchSize}
		var key, label string
		switch kind {
		case "spec":
			pol, err := ParsePolicy(co.Policy)
			if err != nil {
				return err
			}
			nr, err := parseNestRule(co.NestRule)
			if err != nil {
				return err
			}
			ec := spec.Config{TUs: co.TUs, Policy: pol, LETCapacity: co.LETCap, NestRule: nr}
			if ex := co.Exclusion; ex.Enabled {
				ec.Exclude = true
				ec.ExcludeThreshold = ex.Threshold
				ec.ExcludeMinResolved = ex.MinResolved
				ec.ExcludeCapacity = ex.Capacity
			}
			key = referenceCellKey(cfg, "spec", co.Bench, ec.TUs, ec.Policy, ec.LETCapacity, ec.NestRule,
				ec.Exclude, ec.ExcludeThreshold, ec.ExcludeMinResolved, ec.ExcludeCapacity)
			label = fmt.Sprintf("%s %s/%d TUs", co.Bench, ec.Policy, ec.TUs)
		case "fig4":
			key = referenceCellKey(cfg, "fig4", co.TableSize, co.Bench)
			label = fmt.Sprintf("fig4 %s/%d entries", co.Bench, co.TableSize)
		case "clssize":
			key = referenceCellKey(cfg, "clssize", co.Bench)
			if co.CLS <= 0 {
				// AtCap once compared against the raw capacity here.
				key = referenceCellKey(cfg, "clssize", co.Bench, harness.ResolveCLSCapacity(co.CLS))
			}
			label = fmt.Sprintf("cls %s/%d entries", co.Bench, co.CLS)
		case "replacement":
			key = referenceCellKey(cfg, "replacement", co.Bench, co.TableSize, co.Mode)
			label = fmt.Sprintf("replacement %s/%d/%s", co.Bench, co.TableSize, co.Mode)
		case "table1", "fig8", "oneshots", "branchpred", "taskpred", "oracle":
			key = referenceCellKey(cfg, kind, co.Bench)
			label = kind + " " + co.Bench
		default:
			return fmt.Errorf("no reference for kind %q", kind)
		}
		if c.Key != key {
			return fmt.Errorf("cell %d key\n got  %q\n want %q", i, c.Key, key)
		}
		if c.Label != label {
			return fmt.Errorf("cell %d label\n got  %q\n want %q", i, c.Label, label)
		}
		if got, want := c.group, referenceGroupKey(co.Bench, co.Budget, co.Seed, batchSize); got != want {
			return fmt.Errorf("cell %d group key\n got  %q\n want %q", i, got, want)
		}
	}
	return nil
}
