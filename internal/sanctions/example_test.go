package sanctions_test

import (
	"fmt"

	"whereru/internal/sanctions"
	"whereru/internal/simtime"
)

func ExampleList() {
	l := sanctions.NewList()
	l.Add(sanctions.Entry{
		Domain:      "vtb.ru",
		Entity:      "VTB Bank",
		Listed:      simtime.Date(2022, 2, 25),
		Authorities: sanctions.USOFAC | sanctions.UKSanctions,
	})
	e, _ := l.Match("online.vtb.ru.")
	fmt.Println(e.Entity, "—", e.Authorities, "— listed", e.Listed)
	fmt.Println("sanctioned:", l.ContainsEver("www.vtb.ru."), l.ContainsEver("notvtb.ru."))
	// Output:
	// VTB Bank — US-OFAC-SDN+UK — listed 2022-02-25
	// sanctioned: true false
}
