package world

import (
	"fmt"
	"math/rand"

	"whereru/internal/netsim"
	"whereru/internal/pki"
	"whereru/internal/simtime"
)

// caIssuance describes one CA's daily issuance for .ru/.рф names at paper
// scale, per period, with the day it stopped (0 = never stopped) and
// whether it occasionally leaks "isolated dot" issuance afterwards from
// lesser-known CNs (Figure 8).
type caIssuance struct {
	org          string
	preConflict  float64 // certs/day, paper scale
	preSanctions float64
	postSanction float64
	stopDay      simtime.Day
	isolatedDots bool
	revRate      float64 // Table 2 revocation rate, percent
}

// issuancePlan is calibrated from Table 1 (per-period totals divided by
// period lengths: 54, 30 and 51 days) and Figure 8 (stop dates).
var issuancePlan = []caIssuance{
	{org: pki.LetsEncrypt, preConflict: 121963, preSanctions: 109500, postSanction: 107020, revRate: 0.06},
	{org: pki.DigiCert, preConflict: 4519, stopDay: simtime.Date(2022, 2, 25), isolatedDots: true, revRate: 0.80},
	{org: pki.CPanel, preConflict: 2833, preSanctions: 367, stopDay: simtime.Date(2022, 3, 26), isolatedDots: true, revRate: 0.10},
	{org: pki.GlobalSign, preConflict: 1000, preSanctions: 833, postSanction: 549, revRate: 1.68},
	{org: pki.Sectigo, preConflict: 900, preSanctions: 120, stopDay: simtime.Date(2022, 3, 1), isolatedDots: true, revRate: 5.15},
	{org: pki.ZeroSSL, preConflict: 600, preSanctions: 250, stopDay: simtime.Date(2022, 3, 10), revRate: 0.30},
	{org: pki.GoGetSSL, preConflict: 450, preSanctions: 150, stopDay: simtime.Date(2022, 3, 5), revRate: 0.20},
	{org: pki.GoogleTrust, preConflict: 400, preSanctions: 300, postSanction: 255, revRate: 0.05},
	{org: pki.AmazonTrust, preConflict: 300, preSanctions: 80, stopDay: simtime.Date(2022, 3, 12), revRate: 0.10},
	{org: pki.CloudflareInc, preConflict: 180, preSanctions: 30, postSanction: 8, revRate: 0.05},
}

// sanctionedPlan carries Table 2's sanctioned-domain columns: issuance
// counts at paper scale (Let's Encrypt's 16k modeled at 1:10) and the
// revocation fraction. DigiCert and Sectigo revoke everything (revPct
// 100); counts scale with the world so Table 1's shares stay untouched,
// while rates — the paper's Table 2 signal — are preserved.
type sanctionedIssuance struct {
	org      string
	issued   int
	revPct   float64 // percent of issued that get revoked
	preShare float64 // fraction issued before the conflict
}

var sanctionedPlan = []sanctionedIssuance{
	{org: pki.LetsEncrypt, issued: PaperNumbers.SancIssuedLE, revPct: 1.19, preShare: 0.55},
	{org: pki.DigiCert, issued: PaperNumbers.SancIssuedDigiCert, revPct: 100, preShare: 1.0},
	{org: pki.GlobalSign, issued: PaperNumbers.SancIssuedGlobalSign, revPct: 2.54, preShare: 0.15},
	{org: pki.Sectigo, issued: PaperNumbers.SancIssuedSectigo, revPct: 100, preShare: 1.0},
	{org: pki.ZeroSSL, issued: PaperNumbers.SancIssuedZeroSSL, revPct: 2.43, preShare: 0.6},
}

func (p caIssuance) rate(day simtime.Day) float64 {
	if p.stopDay != 0 && day >= p.stopDay {
		return 0
	}
	switch simtime.PeriodOf(day) {
	case simtime.PreConflict:
		return p.preConflict
	case simtime.PreSanctions:
		return p.preSanctions
	default:
		return p.postSanction
	}
}

// buildCerts generates the §4 certificate corpus: the CT window's daily
// issuance per CA (scaled), revocations, the sanctioned-domain issuance
// and revocation patterns, the Russian Trusted Root CA's unlogged
// certificates, and the TLS scan endpoints that make them observable.
func (w *World) buildCerts() error {
	rng := rand.New(rand.NewSource(w.cfg.Seed ^ 0x5EC7C4A5))
	scale := float64(w.cfg.Scale)
	revWindowStart := simtime.Date(2022, 2, 25)

	for day := simtime.CTWindowStart; day <= simtime.CTWindowEnd; day++ {
		for _, plan := range issuancePlan {
			ca := w.CAs[plan.org]
			rate := plan.rate(day) / scale
			count := int(rate)
			if rng.Float64() < rate-float64(count) {
				count++
			}
			// Isolated post-stop dots from lesser-known issuing CNs.
			if count == 0 && plan.isolatedDots && plan.stopDay != 0 && day > plan.stopDay && rng.Float64() < 0.04 {
				count = 1
			}
			for i := 0; i < count; i++ {
				d, ok := w.randomActiveDomain(rng, day)
				if !ok || w.domains.isSanctioned(d) {
					// Sanctioned-domain issuance follows its own plan
					// (Table 2); keep it out of the background volume.
					continue
				}
				name := w.domains.Name(d)
				cert, err := w.issue(ca, day, name, "www."+name)
				if err != nil {
					return err
				}
				// Background revocations at the CA's Table-2 rate, for
				// certificates whose validity reaches the analysis window.
				if cert.NotAfter >= revWindowStart && rng.Float64() < plan.revRate/100 {
					revDay := max(day+1, revWindowStart).Add(rng.Intn(30))
					if revDay <= simtime.CTWindowEnd {
						w.Certs.CRL(cert.IssuerOrg).Revoke(cert.Serial, revDay, pki.ReasonSuperseded)
					}
				}
			}
		}
	}

	if err := w.buildSanctionedCerts(rng); err != nil {
		return err
	}
	if err := w.buildRussianCA(rng); err != nil {
		return err
	}
	w.buildScanEndpoints(rng)
	return nil
}

// issue has ca issue a certificate and files it where the world keeps
// certificates: once in the store, and in the CT log if the CA logs.
func (w *World) issue(ca *pki.CA, day simtime.Day, names ...string) (*pki.Certificate, error) {
	cert, err := ca.Issue(day, names...)
	if err != nil {
		return nil, err
	}
	if err := w.Certs.Add(cert); err != nil {
		return nil, err
	}
	if cert.Logged {
		if _, err := w.CTLog.Append(cert, day); err != nil {
			return nil, err
		}
	}
	return cert, nil
}

// serve registers a TLS endpoint at the next address of asn that presents
// cert while it is valid: what makes it observable to the scanner.
func (w *World) serve(asn netsim.ASN, cert *pki.Certificate) error {
	addr, err := w.Internet.NextAddr(asn)
	if err != nil {
		return err
	}
	w.Scanner.Register(addr, func(day simtime.Day) []*pki.Certificate {
		if cert.ValidOn(day) {
			return []*pki.Certificate{cert}
		}
		return nil
	})
	return nil
}

// buildSanctionedCerts issues Table 2's sanctioned-domain certificates.
// DigiCert and Sectigo issued only before the conflict and subsequently
// revoked every one; GlobalSign's issuance is mostly post-conflict (the
// RU-CENTER advice to buy GlobalSign certificates).
func (w *World) buildSanctionedCerts(rng *rand.Rand) error {
	sanc := w.Sanctions.AllDomains()
	// Sanctioned issuance was calibrated against a 1:10 model of the
	// paper's absolute counts; rescale to this world's scale with a floor
	// that keeps every CA's revocation rate well-defined.
	sancScale := float64(w.cfg.Scale) / 10.0
	if sancScale < 1 {
		sancScale = 1
	}
	for _, plan := range sanctionedPlan {
		ca := w.CAs[plan.org]
		issued := int(float64(plan.issued)/sancScale + 0.5)
		if issued < 4 {
			issued = 4
		}
		revoked := issued
		if plan.revPct < 100 {
			revoked = int(float64(issued)*plan.revPct/100 + 0.5)
			// The paper's §4.2 observation — every CA's sanctioned
			// revocation rate exceeds its overall rate — must survive
			// small scaled samples.
			if revoked < 1 {
				revoked = 1
			}
		}
		for i := 0; i < issued; i++ {
			var day simtime.Day
			if float64(i) < float64(issued)*plan.preShare {
				day = simtime.CTWindowStart.Add(rng.Intn(simtime.ConflictStart.Sub(simtime.CTWindowStart)))
			} else {
				day = simtime.ConflictStart.Add(rng.Intn(simtime.CTWindowEnd.Sub(simtime.ConflictStart) + 1))
			}
			domain := sanc[rng.Intn(len(sanc))]
			cert, err := w.issue(ca, day, domain, "www."+domain)
			if err != nil {
				return err
			}
			// The first `revoked` certificates get revoked: full
			// revocation for DigiCert/Sectigo, sampled for the rest.
			if i < revoked {
				revDay := max(day+1, simtime.Date(2022, 2, 25)).Add(rng.Intn(14))
				if revDay > simtime.CTWindowEnd {
					revDay = simtime.CTWindowEnd
				}
				w.Certs.CRL(cert.IssuerOrg).Revoke(cert.Serial, revDay, pki.ReasonCessation)
			}
		}
	}
	return nil
}

// buildRussianCA issues the Russian Trusted Root CA's 170 certificates
// (§4.3): 36 secure sanctioned domains, 94 other .ru names, 2 .рф names,
// and 38 Russian-affiliated names under other TLDs. None are CT-logged;
// they become visible only through the scanner.
func (w *World) buildRussianCA(rng *rand.Rand) error {
	ca := w.CAs[pki.RussianTrustedRootCA]
	sanc := w.Sanctions.AllDomains()
	issueDay := func() simtime.Day {
		return RussianCAStartDay.Add(rng.Intn(21)) // "over a period of a few weeks"
	}
	var targets []string
	for i := 0; i < PaperNumbers.RussianCASanctionedCerts; i++ {
		targets = append(targets, sanc[i%len(sanc)])
	}
	ruCount := PaperNumbers.RussianCARuDomains - PaperNumbers.RussianCASanctionedCerts
	seen := map[string]bool{}
	// Bounded search: tiny worlds (extreme Scale) may not have 94
	// distinct active .ru names; the other-TLD fill below tops up to 170.
	for attempts := 0; len(seen) < ruCount && attempts < 200*ruCount; attempts++ {
		d, ok := w.randomActiveDomain(rng, simtime.StudyEnd)
		if !ok {
			break
		}
		name := w.domains.Name(d)
		if seen[name] || w.Sanctions.ContainsEver(name) || !isRu(name) {
			continue
		}
		seen[name] = true
		targets = append(targets, name)
	}
	for i := 0; i < PaperNumbers.RussianCARFDomains; i++ {
		targets = append(targets, fmt.Sprintf("xn--%02d-6kc.xn--p1ai.", i))
	}
	for len(targets) < PaperNumbers.RussianCACerts {
		targets = append(targets, fmt.Sprintf("russian-affiliated%03d.com.", len(targets)))
	}
	for _, name := range targets {
		cert, err := w.issue(ca, issueDay(), name)
		if err != nil {
			return err
		}
		// Every Russian-CA certificate is actively served, so scans see it.
		if err := w.serve(w.providers["rucenter"].ASN, cert); err != nil {
			return err
		}
	}
	return nil
}

func isRu(name string) bool {
	return len(name) > 3 && name[len(name)-3:] == "ru."
}

// buildScanEndpoints registers a sample of ordinary TLS endpoints so the
// scan archive contains the >800k-certificate backdrop the paper contrasts
// the Russian CA's 170 certificates against (scaled).
func (w *World) buildScanEndpoints(rng *rand.Rand) {
	// Serve a sample of recent Let's Encrypt certificates.
	leCerts := w.Certs.ByIssuer(pki.LetsEncrypt)
	sample := 800
	if sample > len(leCerts) {
		sample = len(leCerts)
	}
	for i := 0; i < sample; i++ {
		if w.serve(w.providers["rupool1"].ASN, leCerts[rng.Intn(len(leCerts))]) != nil {
			return
		}
	}
}
