// Command fixture is the caller the check counts, like cmd/ in the module.
package main

import (
	"flag"
	"fmt"

	"fixture/calc"
	"fixture/store"
)

func main() {
	s := store.New(3)
	fmt.Println(s, calc.Sub(2, 1), calc.Total(s), calc.Configure(flag.CommandLine))
}
