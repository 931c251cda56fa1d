package store

import "testing"

func TestLimit(t *testing.T) {
	if c := (Config{Limit: 1}).withDefaults(); c.Limit != 1 {
		t.Fatal(c)
	}
}
