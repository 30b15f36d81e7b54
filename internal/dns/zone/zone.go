// Package zone provides an authoritative DNS zone: an RRset store with
// RFC 1034 lookup semantics (answers, referrals with glue, NODATA and
// NXDOMAIN), a zone-file parser/serializer, and a dns.Handler that serves
// one or more zones. No binary imports it: the simulated TLDs serve from
// dynamic handlers and the registries' zone snapshots are the seed lists.
// It stays only with its own tests, queued for deletion with them.
package zone

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync"

	"whereru/internal/dns"
)

type rrKey struct {
	name string
	typ  dns.Type
}

// Zone is a single authoritative zone rooted at Origin.
type Zone struct {
	Origin string

	mu     sync.RWMutex
	rrsets map[rrKey][]dns.RR
	names  map[string]int // name -> number of rrsets at that name
}

// New creates an empty zone with an SOA record synthesized from origin.
func New(origin string) *Zone {
	z := &Zone{
		Origin: dns.Canonical(origin),
		rrsets: make(map[rrKey][]dns.RR),
		names:  make(map[string]int),
	}
	suffix := strings.TrimPrefix(z.Origin, ".") // "" for the root: its SOA names "ns1."
	z.Add(dns.NewSOA(z.Origin, "ns1."+suffix, "hostmaster."+suffix, 1))
	return z
}

// Add inserts a record. Records outside the zone are rejected.
func (z *Zone) Add(rr dns.RR) error {
	rr.Name = dns.Canonical(rr.Name)
	if !dns.IsSubdomain(rr.Name, z.Origin) {
		return fmt.Errorf("zone %s: record %s out of zone", z.Origin, rr.Name)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	k := rrKey{rr.Name, rr.Type}
	if len(z.rrsets[k]) == 0 {
		z.names[rr.Name]++
	}
	z.rrsets[k] = append(z.rrsets[k], rr)
	return nil
}

// RemoveRRset deletes all records of a given name and type.
func (z *Zone) RemoveRRset(name string, typ dns.Type) {
	name = dns.Canonical(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	k := rrKey{name, typ}
	if len(z.rrsets[k]) > 0 {
		delete(z.rrsets, k)
		z.names[name]--
		if z.names[name] == 0 {
			delete(z.names, name)
		}
	}
}

// Lookup returns the rrset for (name, type), or nil.
func (z *Zone) Lookup(name string, typ dns.Type) []dns.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	rrs := z.rrsets[rrKey{dns.Canonical(name), typ}]
	out := make([]dns.RR, len(rrs))
	copy(out, rrs)
	return out
}

// SOA returns the zone's SOA record (zero RR if absent).
func (z *Zone) SOA() dns.RR {
	rrs := z.Lookup(z.Origin, dns.TypeSOA)
	if len(rrs) == 0 {
		return dns.RR{}
	}
	return rrs[0]
}

// Size returns the number of records in the zone.
func (z *Zone) Size() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, rrs := range z.rrsets {
		n += len(rrs)
	}
	return n
}

// Names returns all owner names in the zone, sorted.
func (z *Zone) Names() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	names := make([]string, 0, len(z.names))
	for n := range z.names {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Answer is the result of an authoritative lookup.
type Answer struct {
	RCode         dns.RCode
	Authoritative bool
	Answers       []dns.RR
	Authority     []dns.RR
	Additional    []dns.RR
}

// Query resolves a question against the zone with RFC 1034 §4.3.2
// semantics: authoritative answer, delegation referral with glue, CNAME,
// NODATA, or NXDOMAIN.
func (z *Zone) Query(name string, typ dns.Type) Answer {
	name = dns.Canonical(name)
	if !dns.IsSubdomain(name, z.Origin) {
		return Answer{RCode: dns.RCodeRefused}
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	// Walk down from the zone origin looking for a delegation cut
	// strictly between origin and name.
	if cut := z.findDelegation(name); cut != "" {
		nsSet := z.rrsets[rrKey{cut, dns.TypeNS}]
		ans := Answer{RCode: dns.RCodeNoError, Authority: append([]dns.RR(nil), nsSet...)}
		for _, ns := range nsSet {
			host := ns.Data.(dns.NSData).Host
			if dns.IsSubdomain(host, z.Origin) {
				ans.Additional = append(ans.Additional, z.rrsets[rrKey{host, dns.TypeA}]...)
				ans.Additional = append(ans.Additional, z.rrsets[rrKey{host, dns.TypeAAAA}]...)
			}
		}
		return ans
	}

	if rrs := z.rrsets[rrKey{name, typ}]; len(rrs) > 0 {
		return Answer{Authoritative: true, Answers: append([]dns.RR(nil), rrs...)}
	}
	// CNAME at the name answers any type except the CNAME's own.
	if cname := z.rrsets[rrKey{name, dns.TypeCNAME}]; len(cname) > 0 && typ != dns.TypeCNAME {
		ans := Answer{Authoritative: true, Answers: append([]dns.RR(nil), cname...)}
		// Chase the target within this zone, once.
		target := cname[0].Data.(dns.CNAMEData).Target
		if rrs := z.rrsets[rrKey{target, typ}]; len(rrs) > 0 {
			ans.Answers = append(ans.Answers, rrs...)
		}
		return ans
	}
	soa := z.rrsets[rrKey{z.Origin, dns.TypeSOA}]
	if z.nameExists(name) {
		return Answer{Authoritative: true, Authority: append([]dns.RR(nil), soa...)} // NODATA
	}
	return Answer{RCode: dns.RCodeNXDomain, Authoritative: true, Authority: append([]dns.RR(nil), soa...)}
}

// findDelegation returns the closest delegation cut at or above name,
// strictly below the origin, or "".
func (z *Zone) findDelegation(name string) string {
	for n := name; n != z.Origin && n != "."; n = dns.Parent(n) {
		if len(z.rrsets[rrKey{n, dns.TypeNS}]) > 0 {
			// NS at the apex is authority, not delegation — but n never
			// equals origin inside this loop.
			return n
		}
	}
	return ""
}

// nameExists reports whether any rrset or delegation-descendant exists at
// name (so empty non-terminals answer NODATA, not NXDOMAIN).
func (z *Zone) nameExists(name string) bool {
	if z.names[name] > 0 {
		return true
	}
	suffix := "." + name
	for n := range z.names {
		if strings.HasSuffix(n, suffix) {
			return true
		}
	}
	return false
}

// WriteTo serializes the zone in master-file presentation format.
func (z *Zone) WriteTo(w io.Writer) (int64, error) {
	z.mu.RLock()
	keys := make([]rrKey, 0, len(z.rrsets))
	for k := range z.rrsets {
		keys = append(keys, k)
	}
	records := make([]dns.RR, 0, len(keys))
	for _, k := range keys {
		records = append(records, z.rrsets[k]...)
	}
	z.mu.RUnlock()
	sortRRs(records)
	// SOA first, by convention.
	sort.SliceStable(records, func(i, j int) bool {
		return records[i].Type == dns.TypeSOA && records[j].Type != dns.TypeSOA
	})
	var total int64
	bw := bufio.NewWriter(w)
	n, err := fmt.Fprintf(bw, "$ORIGIN %s\n", z.Origin)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, rr := range records {
		n, err := fmt.Fprintln(bw, rr.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// sortRRs orders records deterministically: by name, type, then rendered
// RDATA.
func sortRRs(rrs []dns.RR) {
	sort.Slice(rrs, func(i, j int) bool {
		if rrs[i].Name != rrs[j].Name {
			return rrs[i].Name < rrs[j].Name
		}
		if rrs[i].Type != rrs[j].Type {
			return rrs[i].Type < rrs[j].Type
		}
		return rrs[i].Data.String() < rrs[j].Data.String()
	})
}

// Parse reads a zone in the presentation format emitted by WriteTo.
// It accepts "$ORIGIN" directives, comments (';' to end of line) and blank
// lines. Owner names must be fully qualified.
func Parse(r io.Reader) (*Zone, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var z *Zone
	var pending []dns.RR
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "$ORIGIN" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("zone: line %d: malformed $ORIGIN", lineNo)
			}
			z = &Zone{
				Origin: dns.Canonical(fields[1]),
				rrsets: make(map[rrKey][]dns.RR),
				names:  make(map[string]int),
			}
			continue
		}
		rr, err := parseRR(fields)
		if err != nil {
			return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
		}
		if z == nil {
			pending = append(pending, rr)
			continue
		}
		if err := z.Add(rr); err != nil {
			return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if z == nil {
		return nil, fmt.Errorf("zone: missing $ORIGIN directive")
	}
	for _, rr := range pending {
		if err := z.Add(rr); err != nil {
			return nil, err
		}
	}
	return z, nil
}

func parseRR(fields []string) (dns.RR, error) {
	// name TTL class type rdata...
	if len(fields) < 5 {
		return dns.RR{}, fmt.Errorf("short record %q", strings.Join(fields, " "))
	}
	ttl64, err := strconv.ParseUint(fields[1], 10, 32)
	if err != nil {
		return dns.RR{}, fmt.Errorf("bad TTL %q", fields[1])
	}
	if fields[2] != "IN" {
		return dns.RR{}, fmt.Errorf("unsupported class %q", fields[2])
	}
	name := dns.Canonical(fields[0])
	ttl := uint32(ttl64)
	rdata := fields[4:]
	switch fields[3] {
	case "A":
		addr, err := netip.ParseAddr(rdata[0])
		if err != nil || !addr.Is4() {
			return dns.RR{}, fmt.Errorf("bad A address %q", rdata[0])
		}
		return dns.NewA(name, ttl, addr), nil
	case "AAAA":
		addr, err := netip.ParseAddr(rdata[0])
		if err != nil || !addr.Is6() {
			return dns.RR{}, fmt.Errorf("bad AAAA address %q", rdata[0])
		}
		return dns.NewAAAA(name, ttl, addr), nil
	case "NS":
		return dns.NewNS(name, ttl, rdata[0]), nil
	case "CNAME":
		return dns.NewCNAME(name, ttl, rdata[0]), nil
	case "MX":
		pref, err := strconv.ParseUint(rdata[0], 10, 16)
		if err != nil || len(rdata) < 2 {
			return dns.RR{}, fmt.Errorf("bad MX rdata %v", rdata)
		}
		return dns.NewMX(name, ttl, uint16(pref), rdata[1]), nil
	case "TXT":
		joined := strings.Join(rdata, " ")
		var strs []string
		for len(joined) > 0 {
			var s string
			var rest string
			if n, err := fmt.Sscanf(joined, "%q", &s); n == 1 && err == nil {
				// advance past the quoted string
				idx := strings.Index(joined[1:], `"`)
				rest = strings.TrimSpace(joined[idx+2:])
			} else {
				return dns.RR{}, fmt.Errorf("bad TXT rdata %q", joined)
			}
			strs = append(strs, s)
			joined = rest
		}
		return dns.NewTXT(name, ttl, strs...), nil
	case "SOA":
		if len(rdata) != 7 {
			return dns.RR{}, fmt.Errorf("bad SOA rdata %v", rdata)
		}
		var nums [5]uint32
		for i := 0; i < 5; i++ {
			v, err := strconv.ParseUint(rdata[2+i], 10, 32)
			if err != nil {
				return dns.RR{}, fmt.Errorf("bad SOA number %q", rdata[2+i])
			}
			nums[i] = uint32(v)
		}
		return dns.RR{Name: name, Type: dns.TypeSOA, Class: dns.ClassIN, TTL: ttl, Data: dns.SOAData{
			MName: dns.Canonical(rdata[0]), RName: dns.Canonical(rdata[1]),
			Serial: nums[0], Refresh: nums[1], Retry: nums[2], Expire: nums[3], Minimum: nums[4],
		}}, nil
	default:
		return dns.RR{}, fmt.Errorf("unsupported type %q", fields[3])
	}
}
