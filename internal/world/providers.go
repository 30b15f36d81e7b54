package world

import (
	"net/netip"

	"whereru/internal/dns"
	"whereru/internal/netsim"
)

// Provider is one hosting and/or DNS provider in the simulated Internet.
type Provider struct {
	// Key is the stable internal identifier ("regru").
	Key string
	// Org is the display name ("REG.RU").
	Org string
	// ASN is the provider's autonomous system.
	ASN netsim.ASN
	// Country is where the provider's infrastructure geolocates.
	Country string
	// NSNames are the provider's authoritative server names (canonical,
	// ACE form). Their TLDs drive the paper's Figure 2/3 analyses.
	NSNames []string
	// MailHost is the provider's mail exchanger name ("" = no mail
	// service). Must live under one of the provider's NS zones so the
	// delegation path resolves it.
	MailHost string

	// Populated by Build:
	// NSAddrs are the addresses of NSNames (parallel slice).
	NSAddrs []netip.Addr
	// MailAddr is MailHost's address (when MailHost is set).
	MailAddr netip.Addr
	// HostPool is the shared-hosting address pool apex A records point at.
	HostPool []netip.Addr

	// hostData and mxData are HostPool's A payloads and MailHost's MX
	// payload, boxed once for the handlers (see rrcache.go).
	hostData []dns.RData
	mxData   dns.RData
}

// hostPoolSize is the number of shared-hosting addresses per provider.
const hostPoolSize = 64

// infraASN is the dedicated AS hosting root and TLD server addresses.
const infraASN netsim.ASN = 51999

// Catalog returns the full provider catalog. AS numbers for real providers
// are their real-world ASNs; synthetic aggregate pools use the 51xxx range.
func Catalog() []*Provider {
	ns := func(names ...string) []string { return names }
	return []*Provider{
		// ---- Russian providers ----
		{Key: "regru", Org: "REG.RU", ASN: 197695, Country: "RU", NSNames: ns("ns1.reg.ru.", "ns2.reg.ru."), MailHost: "mx1.reg.ru."},
		{Key: "rucenter", Org: "RU-CENTER", ASN: 48287, Country: "RU", NSNames: ns("ns3-l2.nic.ru.", "ns4-l2.nic.ru."), MailHost: "mx.nic.ru."},
		{Key: "timeweb", Org: "Timeweb", ASN: 9123, Country: "RU", NSNames: ns("ns1.timeweb.ru.", "ns2.timeweb.ru."), MailHost: "mx.timeweb.ru."},
		{Key: "beget", Org: "Beget", ASN: 198610, Country: "RU", NSNames: ns("ns1.beget.com.", "ns2.beget.pro."), MailHost: "mx.beget.com."},
		{Key: "sprinthost", Org: "Sprinthost", ASN: 35278, Country: "RU", NSNames: ns("ns1.sprinthost.ru.", "ns2.sprinthost.ru.")},
		{Key: "masterhost", Org: "Masterhost", ASN: 25532, Country: "RU", NSNames: ns("ns1.masterhost.ru.", "ns2.masterhost.ru.")},
		{Key: "yandex", Org: "Yandex", ASN: 13238, Country: "RU", NSNames: ns("dns1.yandex.net.", "dns2.yandex.net."), MailHost: "mx.yandex.net."},
		{Key: "peterhost", Org: "Peterhost", ASN: 51005, Country: "RU", NSNames: ns("ns1.peterhost.ru.", "ns2.peterhost.ru.")},
		{Key: "rupool1", Org: "RU Hosting Pool 1", ASN: 51001, Country: "RU", MailHost: "mx.hosting1.ru.", NSNames: ns("ns1.hosting1.ru.", "ns2.hosting1.ru.")},
		{Key: "rupool2", Org: "RU Hosting Pool 2", ASN: 51002, Country: "RU", MailHost: "mx.hosting2.ru.", NSNames: ns("ns1.hosting2.ru.", "ns2.hosting2.org.")},
		{Key: "rupool3", Org: "RU Hosting Pool 3", ASN: 51003, Country: "RU", MailHost: "mx.hosting3.ru.", NSNames: ns("ns1.hosting3.ru.", "ns2.hosting3.ru.")},
		{Key: "ruself", Org: "RU Self-Hosted", ASN: 51004, Country: "RU", NSNames: ns("ns1.selfdns.ru.", "ns2.selfdns.ru.")},
		{Key: "propool", Org: "RU DNS .pro Pool", ASN: 51006, Country: "RU", NSNames: ns("ns1.dns-pro.pro.", "ns2.dns-pro.pro.")},
		{Key: "compool", Org: "RU DNS .com Pool", ASN: 51007, Country: "RU", NSNames: ns("ns1.dns-com.com.", "ns2.dns-com.com.")},
		// Mail.ru (VK) provides mail service only in the simulation; its
		// NS names exist to anchor the mail.ru zone delegation.
		{Key: "mailru", Org: "Mail.ru (VK)", ASN: 47764, Country: "RU", NSNames: ns("ns1.mail.ru.", "ns2.mail.ru."), MailHost: "mxs.mail.ru."},

		// ---- Western / foreign providers ----
		{Key: "cloudflare", Org: "Cloudflare", ASN: 13335, Country: "US", NSNames: ns("gene.ns.cloudflare.com.", "lola.ns.cloudflare.com.")},
		{Key: "amazon", Org: "Amazon", ASN: 16509, Country: "US", NSNames: ns("ns-101.awsdns-12.com.", "ns-202.awsdns-25.net.", "ns-303.awsdns-37.org.")},
		{Key: "sedo", Org: "Sedo", ASN: 47846, Country: "DE", NSNames: ns("ns1.sedoparking.com.", "ns2.sedoparking.com.")},
		{Key: "google", Org: "Google", ASN: 15169, Country: "US", NSNames: ns("ns-cloud-e1.googledomains.com.", "ns-cloud-e2.googledomains.com."), MailHost: "aspmx.googledomains.com."},
		// googlecloud2 is hosting-only (the ASN Google moved customers to
		// around 2022-03-16); DNS for its customers stays on "google".
		{Key: "googlecloud2", Org: "Google Cloud", ASN: 396982, Country: "US"},
		{Key: "godaddy", Org: "GoDaddy", ASN: 26496, Country: "US", NSNames: ns("ns45.domaincontrol.com.", "ns46.domaincontrol.com."), MailHost: "smtp.domaincontrol.com."},
		{Key: "hetzner", Org: "Hetzner", ASN: 24940, Country: "DE", NSNames: ns("ns1.your-server.de.", "ns2.your-server.de."), MailHost: "mail.your-server.de."},
		{Key: "linode", Org: "Linode", ASN: 63949, Country: "US", NSNames: ns("ns1.linode.com.", "ns2.linode.com.")},
		{Key: "netnod", Org: "Netnod", ASN: 8674, Country: "SE", NSNames: ns("dns-ru.netnod.su.")},
		{Key: "serverel", Org: "Serverel", ASN: 29802, Country: "NL", NSNames: ns("ns1.serverel.com.", "ns2.serverel.com.")},
		{Key: "ovh", Org: "OVH", ASN: 16276, Country: "FR", NSNames: ns("dns1.ovh.net.", "ns1.ovh.net.")},
		{Key: "digitalocean", Org: "DigitalOcean", ASN: 14061, Country: "US", NSNames: ns("ns1.digitalocean.com.", "ns2.digitalocean.com.")},
		{Key: "wedos", Org: "WEDOS", ASN: 25234, Country: "CZ", NSNames: ns("ns1.wedos.cz.", "ns2.wedos.cz.")},
		{Key: "zoneee", Org: "Zone.ee", ASN: 3327, Country: "EE", NSNames: ns("ns1.zone.ee.", "ns2.zone.ee.")},
		{Key: "homepl", Org: "home.pl", ASN: 12824, Country: "PL", NSNames: ns("dns1.home.pl.", "dns2.home.pl.")},
	}
}

// weighted is a (choice key, weight) pair; weights are in percent of the
// domain population but only relative magnitude matters when sampling.
type weighted struct {
	key    string
	weight float64
}

// dnsProfiles maps a profile key to the provider keys whose NS names are
// unioned to form the domain's delegation. Multi-provider profiles are the
// paper's "partial" configurations when the providers' countries differ.
var dnsProfiles = map[string][]string{
	"regru":           {"regru"},
	"rucenter":        {"rucenter"},
	"timeweb":         {"timeweb"},
	"beget":           {"beget"},
	"sprinthost":      {"sprinthost"},
	"masterhost":      {"masterhost"},
	"yandex":          {"yandex"},
	"peterhost":       {"peterhost"},
	"rupool1":         {"rupool1"},
	"rupool2":         {"rupool2"},
	"rupool3":         {"rupool3"},
	"rucenter-netnod": {"rucenter", "netnod"},
	"self-netnod":     {"ruself", "netnod"},
	"beget-mixed":     {"rupool1", "compool"},
	"ru-pro":          {"rupool3", "propool"},
	"ru-net":          {"ruself", "yandex"},
	"self-cloudflare": {"ruself", "cloudflare"},
	"self-hetzner":    {"ruself", "hetzner"},
	"self-linode":     {"ruself", "linode"},
	"self-wedos":      {"ruself", "wedos"},
	"serverel":        {"serverel"},
	"cloudflare":      {"cloudflare"},
	"godaddy":         {"godaddy"},
	"sedodns":         {"sedo"},
	"amazonr53":       {"amazon"},
	"googledns":       {"google"},
	"hetznerdns":      {"hetzner"},
}

// dnsWeightsEarly is the DNS-profile distribution for configurations
// chosen before 2020 (and the bulk of the 2017 population). Calibrated so
// the measured composition hits the paper's 67.0% fully-Russian NS
// infrastructure with ~16.5% each partial and non.
var dnsWeightsEarly = []weighted{
	{"regru", 13}, {"rucenter", 11}, {"timeweb", 7}, {"beget", 4},
	{"sprinthost", 3}, {"masterhost", 3.5}, {"yandex", 7}, {"peterhost", 2.5},
	{"rupool1", 2}, {"rupool2", 5.5}, {"rupool3", 3},
	{"beget-mixed", 1.5}, {"ru-pro", 2}, {"ru-net", 0.5},
	{"rucenter-netnod", 1.5}, {"self-netnod", 3},
	{"self-cloudflare", 3.5}, {"self-hetzner", 4.5}, {"self-linode", 1}, {"self-wedos", 2.5},
	{"cloudflare", 5.9}, {"godaddy", 2.5}, {"sedodns", 3.1}, {"amazonr53", 1.2},
	{"googledns", 0.4}, {"hetznerdns", 4},
}

// dnsWeightsLate shifts toward Cloudflare and Beget (driving the paper's
// growing .com/.pro dependency) and away from .net-named infrastructure.
var dnsWeightsLate = []weighted{
	{"regru", 10.5}, {"rucenter", 8}, {"timeweb", 7}, {"beget", 4},
	{"sprinthost", 2.5}, {"masterhost", 2.5}, {"yandex", 1.5}, {"peterhost", 2},
	{"rupool1", 2}, {"rupool2", 5.5}, {"rupool3", 3},
	{"beget-mixed", 6}, {"ru-pro", 7}, {"ru-net", 0.5},
	{"rucenter-netnod", 1.5}, {"self-netnod", 3},
	{"self-cloudflare", 5}, {"self-hetzner", 4}, {"self-linode", 1}, {"self-wedos", 2.5},
	{"cloudflare", 6.5}, {"godaddy", 2.5}, {"sedodns", 3.1}, {"amazonr53", 1.2},
	{"googledns", 0.4}, {"hetznerdns", 4},
}

// hostProfiles maps hosting profile keys to provider keys; two providers
// mean the apex carries one A record in each (the paper's rare "partial"
// hosting).
var hostProfiles = map[string][]string{
	"regru": {"regru"}, "rucenter": {"rucenter"}, "timeweb": {"timeweb"},
	"beget": {"beget"}, "sprinthost": {"sprinthost"}, "masterhost": {"masterhost"},
	"yandex": {"yandex"}, "peterhost": {"peterhost"},
	"rupool1": {"rupool1"}, "rupool2": {"rupool2"}, "rupool3": {"rupool3"},
	"ruself":     {"ruself"},
	"dual-ru-de": {"ruself", "hetzner"},
	"cloudflare": {"cloudflare"}, "amazon": {"amazon"}, "sedo": {"sedo"},
	"google": {"google"}, "googlecloud2": {"googlecloud2"}, "godaddy": {"godaddy"},
	"hetzner": {"hetzner"}, "linode": {"linode"}, "serverel": {"serverel"},
	"ovh": {"ovh"}, "digitalocean": {"digitalocean"}, "wedos": {"wedos"},
	"zoneee": {"zoneee"}, "homepl": {"homepl"},
}

// hostWeightsEarly is the hosting distribution for pre-2020 choices:
// 71.0% fully Russian, 0.19% partial, 28.81% non-Russian, with the
// paper's named-provider shares (REG.RU+RU-CENTER+Timeweb+Beget = 38%,
// Cloudflare ≈ 6, Amazon ≈ 1.1, Sedo ≈ 3.1, Google ≈ 0.33).
var hostWeightsEarly = []weighted{
	{"regru", 13}, {"rucenter", 11}, {"timeweb", 8}, {"beget", 6},
	{"sprinthost", 4}, {"masterhost", 4}, {"yandex", 2}, {"peterhost", 3},
	{"rupool1", 6}, {"rupool2", 6}, {"rupool3", 5.81}, {"ruself", 2},
	{"dual-ru-de", 0.19},
	{"cloudflare", 5.9}, {"amazon", 1.1}, {"sedo", 3.1}, {"google", 0.33},
	{"godaddy", 5.6}, {"hetzner", 3.5}, {"linode", 2}, {"serverel", 0.3},
	{"ovh", 2.5}, {"digitalocean", 2.2}, {"wedos", 0.8}, {"zoneee", 0.48},
	{"homepl", 1.19},
}

// hostWeightsLate nudges Beget up (the paper's Figure 4 shows the
// Russian big four going from 38% to 39%).
var hostWeightsLate = []weighted{
	{"regru", 13}, {"rucenter", 11}, {"timeweb", 8}, {"beget", 8},
	{"sprinthost", 4}, {"masterhost", 3.5}, {"yandex", 2}, {"peterhost", 2.5},
	{"rupool1", 6}, {"rupool2", 5.5}, {"rupool3", 5.31}, {"ruself", 2},
	{"dual-ru-de", 0.19},
	{"cloudflare", 6.5}, {"amazon", 1.1}, {"sedo", 3.1}, {"google", 0.33},
	{"godaddy", 5}, {"hetzner", 3.5}, {"linode", 2}, {"serverel", 0.3},
	{"ovh", 2.5}, {"digitalocean", 2.2}, {"wedos", 0.8}, {"zoneee", 0.48},
	{"homepl", 1.19},
}

// sampleWeighted picks a key from a weight table given a uniform [0,1)
// draw.
func sampleWeighted(table []weighted, u float64) string {
	var total float64
	for _, w := range table {
		total += w.weight
	}
	x := u * total
	for _, w := range table {
		x -= w.weight
		if x < 0 {
			return w.key
		}
	}
	return table[len(table)-1].key
}
