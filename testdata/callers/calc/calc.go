// Package calc calls into store the ways the caller check must count.
package calc

import (
	"flag"

	"fixture/store"
)

// Sizer is the interface store.Store's Size is called through.
type Sizer interface{ Size() int }

// Sub returns a - b.
func Sub(a, b int) int { return a - b }

// Total sums sizes through Sizer.
func Total(xs ...Sizer) int {
	total := 0
	for _, x := range xs {
		total += x.Size()
	}
	return total
}

// Configure builds a store.Config from flags.
func Configure(fs *flag.FlagSet) store.Config {
	c := store.Config{Shards: 2}
	c.Count++
	c.Retries = 3
	fs.IntVar(&c.Level, "level", 1, "store level")
	return c
}
