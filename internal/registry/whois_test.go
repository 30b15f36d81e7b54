package registry

import (
	"strings"
	"testing"

	"whereru/internal/simtime"
)

func startWhois(t *testing.T) (*WhoisServer, *Group) {
	t.Helper()
	b := NewBuilder(2, "ru.")
	if err := b.Add("example.ru.", simtime.MustParse("2020-05-01"), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("gone.ru.", simtime.MustParse("2019-01-01"), simtime.MustParse("2021-07-15")); err != nil {
		t.Fatal(err)
	}
	g := b.Build(func(d int) (string, string) {
		return []string{"ORG-EX", "ORG-GONE"}[d], []string{"REG.RU", "RU-CENTER"}[d]
	})
	s := &WhoisServer{Source: g}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, g
}

func TestWhoisLookup(t *testing.T) {
	s, _ := startWhois(t)
	resp, err := WhoisQuery(s.Addr(), "example.ru")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"domain:     example.ru",
		"registrant: ORG-EX",
		"registrar:  REG.RU",
		"created:    2020-05-01",
		"state:      REGISTERED",
	} {
		if !strings.Contains(resp, want) {
			t.Errorf("response missing %q:\n%s", want, resp)
		}
	}
}

func TestWhoisDeletedDomain(t *testing.T) {
	s, _ := startWhois(t)
	resp, err := WhoisQuery(s.Addr(), "gone.ru.")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "state:      DELETED") || !strings.Contains(resp, "removed:    2021-07-15") {
		t.Errorf("deleted record wrong:\n%s", resp)
	}
}

func TestWhoisNoMatch(t *testing.T) {
	s, _ := startWhois(t)
	resp, err := WhoisQuery(s.Addr(), "nosuch.ru")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "% No match for nosuch.ru.") {
		t.Errorf("no-match response wrong:\n%s", resp)
	}
}

func TestWhoisCaseAndDotInsensitive(t *testing.T) {
	s, _ := startWhois(t)
	for _, q := range []string{"EXAMPLE.RU", "example.ru.", "Example.Ru"} {
		resp, err := WhoisQuery(s.Addr(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp, "ORG-EX") {
			t.Errorf("query %q did not match:\n%s", q, resp)
		}
	}
}

func TestWhoisServerLifecycle(t *testing.T) {
	s := &WhoisServer{Source: NewBuilder(0, "ru.").Build(nil)}
	if s.Addr() != "" {
		t.Error("Addr before Listen")
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen after Close succeeded")
	}
	if _, err := WhoisQuery(s.Addr(), "x.ru"); err == nil {
		t.Error("query to closed server succeeded")
	}
}
