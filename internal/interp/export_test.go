package interp

import "dynloop/internal/isa"

// FusedFirst reports whether pc holds the first constituent of a fused
// micro-op in k, so external tests can aim a budget inside the pair.
func FusedFirst(k *Code, pc isa.Addr) bool {
	return int(pc) < len(k.ops) && k.ops[pc].op >= opFuseFirst
}
