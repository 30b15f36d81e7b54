package zone

import (
	"net/netip"
	"sort"
	"strings"

	"whereru/internal/dns"
)

// Authority serves one or more zones as a dns.Handler, routing each query
// to the zone with the longest matching origin (most-specific wins, so a
// server can host both "ru." and "example.ru.").
type Authority struct {
	zones map[string]*Zone // fixed at construction: readers take no lock
}

// NewAuthority returns an Authority serving the given zones.
func NewAuthority(zones ...*Zone) *Authority {
	a := &Authority{zones: make(map[string]*Zone)}
	for _, z := range zones {
		a.zones[z.Origin] = z
	}
	return a
}

// Zones lists the served origins, sorted.
func (a *Authority) Zones() []string {
	out := make([]string, 0, len(a.zones))
	for o := range a.zones {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// match returns the most-specific zone containing name, or nil.
func (a *Authority) match(name string) *Zone {
	var best *Zone
	bestLabels := -1
	for origin, z := range a.zones {
		if dns.IsSubdomain(name, origin) {
			if n := strings.Count(origin, "."); n > bestLabels {
				best, bestLabels = z, n
			}
		}
	}
	return best
}

// ServeDNS implements dns.Handler.
func (a *Authority) ServeDNS(q *dns.Message, _ netip.Addr) *dns.Message {
	resp := q.Reply()
	if q.Opcode != 0 /* QUERY */ || len(q.Questions) != 1 {
		resp.RCode = dns.RCodeNotImp
		return resp
	}
	question := q.Questions[0]
	if question.Class != dns.ClassIN {
		resp.RCode = dns.RCodeNotImp
		return resp
	}
	z := a.match(question.Name)
	if z == nil {
		resp.RCode = dns.RCodeRefused
		return resp
	}
	ans := z.Query(question.Name, question.Type)
	resp.RCode = ans.RCode
	resp.Authoritative = ans.Authoritative
	resp.Answers = ans.Answers
	resp.Authority = ans.Authority
	resp.Additional = ans.Additional
	return resp
}
