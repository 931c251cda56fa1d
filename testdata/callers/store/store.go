// Package store is the caller check's fixture: each export is set, called
// or left alone in one way the check must tell apart.
package store

import "fmt"

// Store is read through calc.Sizer and printed through fmt.Stringer.
type Store struct{ n int }

// New returns a store of size n.
func New(n int) *Store { return &Store{n: n} }

// Sub has no caller. calc.Sub shares its name, so a name grep misses it.
func (s *Store) Sub(d int) int { return s.n - d }

// String implements fmt.Stringer, which only the standard library calls.
func (s *Store) String() string { return fmt.Sprint(s.n) }

// Size implements calc.Sizer and is called only through it.
func (s *Store) Size() int { return s.n }

// Config holds one field per way of setting it.
type Config struct {
	Count   int    // only incremented
	Name    string `json:"name"`
	Shards  int    // set by a keyed literal
	Level   int    // set through its address
	Retries int    // set by an assignment
	Limit   int    // set only by store_test.go
	Depth   int    // set only by withDefaults
}

func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = 4
	}
	return c
}
