//go:build race

package serve

import "time"

// The race detector slows the parser and the goal path about fivefold,
// so the linear-time tests' one-line inputs get five times the bound.
func init() { lineBound = 5 * time.Second }
