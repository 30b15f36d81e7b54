package sanctions

import (
	"testing"

	"whereru/internal/simtime"
)

func TestAddAndMatch(t *testing.T) {
	l := NewList()
	listed := simtime.MustParse("2022-02-25")
	l.Add(Entry{Domain: "vtb.ru", Entity: "VTB Bank", Listed: listed, Authorities: USOFAC})
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	e, ok := l.Match("vtb.ru.")
	if !ok || e.Entity != "VTB Bank" || e.Listed != listed {
		t.Fatalf("Match = %+v, %v", e, ok)
	}
	// Subdomains match.
	if _, ok := l.Match("online.vtb.ru."); !ok {
		t.Error("subdomain did not match")
	}
	if _, ok := l.Match("notvtb.ru."); ok {
		t.Error("sibling matched")
	}
	if !l.ContainsEver("www.vtb.ru.") {
		t.Error("ContainsEver failed")
	}
}

func TestMergeAuthorities(t *testing.T) {
	l := NewList()
	early := simtime.MustParse("2022-02-25")
	late := simtime.MustParse("2022-03-15")
	l.Add(Entry{Domain: "dual.ru", Entity: "Dual Org", Listed: late, Authorities: USOFAC})
	l.Add(Entry{Domain: "dual.ru", Listed: early, Authorities: UKSanctions})
	e, _ := l.Match("dual.ru.")
	if e.Listed != early {
		t.Errorf("merged Listed = %v, want earliest %v", e.Listed, early)
	}
	if e.Authorities != USOFAC|UKSanctions {
		t.Errorf("merged Authorities = %v", e.Authorities)
	}
	if e.Entity != "Dual Org" {
		t.Errorf("entity lost in merge: %q", e.Entity)
	}
	if l.Len() != 1 {
		t.Errorf("merge created duplicate: Len = %d", l.Len())
	}
}

func TestAuthorityString(t *testing.T) {
	if USOFAC.String() != "US-OFAC-SDN" {
		t.Error(USOFAC.String())
	}
	if UKSanctions.String() != "UK" {
		t.Error(UKSanctions.String())
	}
	if (USOFAC | UKSanctions).String() != "US-OFAC-SDN+UK" {
		t.Error((USOFAC | UKSanctions).String())
	}
	if Authority(0).String() != "none" {
		t.Error(Authority(0).String())
	}
}

func TestSortedAccessors(t *testing.T) {
	l := NewList()
	for _, d := range []string{"zzz.ru", "aaa.ru", "mmm.ru"} {
		l.Add(Entry{Domain: d, Listed: 1})
	}
	all := l.AllDomains()
	if len(all) != 3 || all[0] != "aaa.ru." || all[2] != "zzz.ru." {
		t.Errorf("AllDomains = %v", all)
	}
}
