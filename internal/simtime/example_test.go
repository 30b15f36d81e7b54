package simtime_test

import (
	"fmt"

	"whereru/internal/simtime"
)

func ExampleDate() {
	d := simtime.Date(2022, 2, 24)
	fmt.Println(d)
	fmt.Println(d.Add(30))
	fmt.Println(simtime.PeriodOf(d))
	// Output:
	// 2022-02-24
	// 2022-03-26
	// pre-sanctions
}

func ExamplePeriodOf() {
	for _, s := range []string{"2022-01-15", "2022-03-01", "2022-04-15"} {
		d := simtime.MustParse(s)
		fmt.Printf("%s: %s\n", d, simtime.PeriodOf(d))
	}
	// Output:
	// 2022-01-15: pre-conflict
	// 2022-03-01: pre-sanctions
	// 2022-04-15: post-sanctions
}
