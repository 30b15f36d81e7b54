package world

import (
	"net/netip"
	"slices"
	"strings"

	"whereru/internal/dns"
	"whereru/internal/idn"
	"whereru/internal/netsim"
	"whereru/internal/simtime"
)

// buildServing binds the root, TLD and provider authoritative handlers
// into the in-memory wire. All handlers are dynamic: they consult the
// simulation clock, so the same binding answers differently on different
// days — exactly how the measurement pipeline experiences the real world.
func (w *World) buildServing() error {
	w.buildRRCache()
	for _, root := range w.roots {
		w.Mem.Bind(root, dns.HandlerFunc(w.serveRoot))
	}
	for tld, addrs := range w.tldAddrs {
		handler := w.tldHandler(tld)
		for _, a := range addrs {
			w.Mem.Bind(a, handler)
		}
	}
	for _, p := range w.providers {
		handler := w.providerHandler(p)
		for _, a := range p.NSAddrs {
			w.Mem.Bind(a, handler)
		}
	}
	return nil
}

// serveRoot refers every query to the TLD servers for its rightmost label.
func (w *World) serveRoot(q *dns.Message, _ netip.Addr) *dns.Message {
	resp := q.Reply()
	if len(q.Questions) != 1 {
		resp.RCode = dns.RCodeNotImp
		return resp
	}
	name := q.Questions[0].Name
	tld := dns.TLD(name)
	set, ok := w.rr.rootRef[tld]
	if !ok {
		resp.Authoritative = true
		resp.RCode = dns.RCodeNXDomain
		resp.Authority = w.rr.rootNXSOA
		return resp
	}
	resp.Authority = set.auth
	resp.Additional = set.addl
	return resp
}

// tldHandler serves one TLD: delegations for provider zones (from their
// NS names) and — for .ru and .рф — delegations for registered domains
// according to each domain's configuration on the current simulated day.
func (w *World) tldHandler(tld string) dns.Handler {
	zone := tld + "."
	isRegistryTLD := tld == "ru" || tld == idn.RFTLDASCII
	return dns.HandlerFunc(func(q *dns.Message, _ netip.Addr) *dns.Message {
		resp := q.Reply()
		if len(q.Questions) != 1 {
			resp.RCode = dns.RCodeNotImp
			return resp
		}
		name := q.Questions[0].Name
		if !dns.IsSubdomain(name, zone) {
			resp.RCode = dns.RCodeRefused
			return resp
		}
		now := w.Clock().Now()

		// Provider zones (e.g. nic.ru., sedoparking.com.) win over
		// registrations: they are infrastructure, not customer names.
		for z := name; z != zone && z != "."; z = dns.Parent(z) {
			if _, ok := w.providerZones[z]; ok {
				set := w.rr.providerRef[z]
				resp.Authority = set.auth
				resp.Additional = set.addl
				return resp
			}
		}
		if isRegistryTLD {
			reg := w.registeredAncestor(name, zone)
			if _, cfg, ok := w.domains.configOf(reg, now); ok {
				w.rr.nsSets[cfg.DNS].refer(resp, reg, zone)
				return resp
			}
		}
		resp.Authoritative = true
		resp.RCode = dns.RCodeNXDomain
		resp.Authority = []dns.RR{dns.NewSOA(zone, "a.tld-servers."+zone, "hostmaster."+zone, uint32(now))}
		return resp
	})
}

// registeredAncestor trims name to the registration directly under zone.
// The registration is always a suffix of name, so the result is returned
// as a substring without allocating.
func (w *World) registeredAncestor(name, zone string) string {
	if name == zone || len(name) <= len(zone)+1 || !strings.HasSuffix(name, "."+zone) {
		return ""
	}
	prefix := name[:len(name)-len(zone)-1]
	i := strings.LastIndexByte(prefix, '.')
	return name[i+1:]
}

// providerHandler answers authoritatively for a provider's NS names, and
// for any domain whose configuration on the current day delegates to this
// provider.
func (w *World) providerHandler(p *Provider) dns.Handler {
	// The provider's own infrastructure names answer from fixed record
	// sets, built once per handler.
	ownRRs := make(map[string][]dns.RR, len(p.NSNames)+1)
	for i, n := range p.NSNames {
		ownRRs[n] = []dns.RR{dns.NewA(n, 3600, p.NSAddrs[i])}
	}
	if p.MailHost != "" {
		ownRRs[p.MailHost] = []dns.RR{dns.NewA(p.MailHost, 3600, p.MailAddr)}
	}
	// Apex NS sets: any provider zone apex queried at this server is
	// answered with this provider's NS names (owner = queried zone).
	apexNS := make(map[string][]dns.RR, len(w.providerZones))
	for zone := range w.providerZones {
		rrs := make([]dns.RR, 0, len(p.NSNames))
		for _, h := range p.NSNames {
			rrs = append(rrs, dns.NewNS(zone, 3600, h))
		}
		apexNS[zone] = rrs
	}
	return dns.HandlerFunc(func(q *dns.Message, _ netip.Addr) *dns.Message {
		resp := q.Reply()
		if len(q.Questions) != 1 {
			resp.RCode = dns.RCodeNotImp
			return resp
		}
		question := q.Questions[0]
		name := question.Name
		now := w.Clock().Now()

		// The provider's own infrastructure names.
		if rrs, ok := ownRRs[name]; ok {
			resp.Authoritative = true
			if question.Type == dns.TypeA {
				resp.Answers = rrs
			}
			return resp
		}
		// Provider zone apex (e.g. SOA/NS for nic.ru.) — answer minimally.
		if _, ok := w.providerZones[name]; ok {
			resp.Authoritative = true
			if question.Type == dns.TypeNS {
				resp.Answers = apexNS[name]
			}
			return resp
		}

		// Customer domains; a lame delegation (the domain moved away but
		// something still points here) is refused.
		d, cfg, ok := w.domains.configOf(name, now)
		set := &w.rr.nsSets[cfg.DNS]
		if !ok || !slices.Contains(set.servers, p) {
			resp.RCode = dns.RCodeRefused
			return resp
		}
		resp.Authoritative = true
		switch question.Type {
		case dns.TypeNS:
			resp.Answers = set.appendNS(resp.Records(len(set.ns)), name)
		case dns.TypeA:
			// One stable pool address per hosting provider.
			hosts, idx := w.rr.hostSets[cfg.Host], hostPoolIndex(name)
			resp.Answers = resp.Records(len(hosts))
			for _, hp := range hosts {
				resp.Answers = append(resp.Answers, inRR(name, dns.TypeA, 300, hp.hostData[idx%uint32(len(hp.hostData))]))
			}
		case dns.TypeMX:
			if mp := w.MailProviderFor(d, now); mp != nil && mp.MailHost != "" {
				resp.Answers = append(resp.Records(1), inRR(name, dns.TypeMX, 3600, mp.mxData))
			}
		case dns.TypeSOA:
			resp.Answers = []dns.RR{dns.NewSOA(name, p.NSNames[0], "hostmaster."+name, uint32(now))}
		}
		return resp
	})
}

// ScheduleRegistryOutage registers a scheduled outage window for every
// registry TLD server on the fault layer: base is the profile otherwise
// in effect for those servers (typically the sweep's default), and the
// window is appended to its outage schedule. The plan is also recorded
// in sched (when non-nil) under the "tld:<label>" key so analyses can
// ask what was down on a given day.
func (w *World) ScheduleRegistryOutage(ft *dns.FaultTransport, base dns.FaultProfile, win simtime.Window, sched *netsim.OutageSchedule) {
	base.Outages = append(base.Outages, win)
	for _, tld := range []string{"ru", idn.RFTLDASCII} {
		for _, a := range w.tldAddrs[tld] {
			ft.SetServer(a, base)
		}
		if sched != nil {
			sched.Add("tld:"+tld, win)
		}
	}
}
