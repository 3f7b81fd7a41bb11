package spec

// RefEngine is the reference engine, for the external tests that need
// the registered grids' configurations.
type RefEngine = refEngine

// NewRefEngine returns a reference engine for cfg with a private LET.
func NewRefEngine(cfg Config) *RefEngine { return newRefEngine(cfg) }
