// Package predict provides the small predictors the paper's tables are
// built from: two-bit saturating confidence counters and stride
// predictors over last values. The LET uses them for iteration counts
// (§2.3, §3.1.2) and the LIT for live-in register and memory values (§4).
package predict

// TwoBit is the classic two-bit saturating confidence counter used by the
// STR policy to decide whether a stride is "reliable". The zero value
// starts at weakly-not-confident.
type TwoBit struct {
	state uint8 // 0..3; >=2 means confident
}

// Up strengthens confidence.
func (c *TwoBit) Up() {
	if c.state < 3 {
		c.state++
	}
}

// Down weakens confidence.
func (c *TwoBit) Down() {
	if c.state > 0 {
		c.state--
	}
}

// Confident reports whether the counter is in a confident state.
func (c *TwoBit) Confident() bool { return c.state >= 2 }

// State returns the raw state (0..3), for tests.
func (c *TwoBit) State() uint8 { return c.state }

// Stride predicts the next value of a series as last + (last - previous),
// with a TwoBit confidence tracking whether the stride has been stable.
// The zero value is an empty predictor.
type Stride struct {
	last    int64
	stride  int64
	conf    TwoBit
	samples uint8 // 0, 1 or 2: it saturates once a stride exists
}

// Observe feeds the next actual value of the series.
func (s *Stride) Observe(v int64) {
	switch s.samples {
	case 0:
		s.last = v
		s.samples = 1
	default:
		d := v - s.last
		if s.samples >= 2 {
			if d == s.stride {
				s.conf.Up()
			} else {
				s.conf.Down()
			}
		}
		s.stride = d
		s.last = v
		if s.samples < 2 {
			s.samples = 2
		}
	}
}

// Samples returns how many values have been observed.
func (s *Stride) Samples() int { return int(s.samples) }

// HaveLast reports whether at least one value has been observed, and
// returns it.
func (s *Stride) HaveLast() (int64, bool) { return s.last, s.samples >= 1 }

// HaveStride reports whether at least two values have been observed, and
// returns the last stride.
func (s *Stride) HaveStride() (int64, bool) { return s.stride, s.samples >= 2 }

// Reliable reports whether the stride's confidence counter is saturated
// enough to act on (the STR policy's reliability test).
func (s *Stride) Reliable() bool { return s.samples >= 2 && s.conf.Confident() }

// Predict returns the predicted next value: last + stride once a stride
// exists, the last value after a single observation. ok is false before
// any observation.
func (s *Stride) Predict() (v int64, ok bool) {
	switch {
	case s.samples >= 2:
		return s.last + s.stride, true
	case s.samples == 1:
		return s.last, true
	default:
		return 0, false
	}
}
