// Command ctinspect inspects the simulated Certificate Transparency log:
// it prints the tree head, verifies inclusion and consistency proofs, and
// summarizes issuers — the auditor's view of the §4 certificate corpus.
//
// Usage:
//
//	ctinspect [-scale N] [-verify N]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"whereru/internal/ct"
	"whereru/internal/world"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ctinspect:", err)
		os.Exit(1)
	}
}

func run() error {
	scale := flag.Int("scale", 2000, "world scale divisor")
	seed := flag.Int64("seed", 20220224, "world seed")
	verify := flag.Int("verify", 64, "number of random inclusion proofs to verify")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "building world (scale 1:%d)...\n", *scale)
	w, err := world.Build(world.Config{Seed: *seed, Scale: *scale, RFShare: 0.10})
	if err != nil {
		return err
	}
	log := w.CTLog
	head := log.Head()
	fmt.Printf("log %q: size=%d root=%x last-timestamp=%s\n", log.Name, head.Size, head.Root[:8], head.Timestamp)

	// Issuer histogram.
	counts := map[string]int{}
	for _, e := range log.Scan(0, head.Size, nil) {
		counts[e.Cert.IssuerOrg]++
	}
	orgs := make([]string, 0, len(counts))
	for o := range counts {
		orgs = append(orgs, o)
	}
	sort.Slice(orgs, func(i, j int) bool {
		if counts[orgs[i]] != counts[orgs[j]] {
			return counts[orgs[i]] > counts[orgs[j]]
		}
		return orgs[i] < orgs[j] // map order must not reach the output
	})
	fmt.Println("\nissuers:")
	for _, o := range orgs {
		fmt.Printf("  %-16s %6d\n", o, counts[o])
	}

	// Inclusion proofs.
	step := head.Size / int64(*verify)
	if step == 0 {
		step = 1
	}
	verified := 0
	for idx := int64(0); idx < head.Size; idx += step {
		e, err := log.Entry(idx)
		if err != nil {
			return err
		}
		proof, err := log.InclusionProof(idx, head.Size)
		if err != nil {
			return err
		}
		if !ct.VerifyInclusion(e.Cert.Marshal(), idx, head.Size, proof, head.Root) {
			return fmt.Errorf("inclusion proof FAILED for entry %d", idx)
		}
		verified++
	}
	fmt.Printf("\nverified %d inclusion proofs against the tree head\n", verified)

	// Consistency from a few historic sizes.
	for _, m := range []int64{1, head.Size / 4, head.Size / 2, head.Size - 1} {
		if m <= 0 || m >= head.Size {
			continue
		}
		rootM, err := log.RootAt(m)
		if err != nil {
			return err
		}
		proof, err := log.ConsistencyProof(m, head.Size)
		if err != nil {
			return err
		}
		if !ct.VerifyConsistency(m, head.Size, rootM, head.Root, proof) {
			return fmt.Errorf("consistency proof FAILED for %d → %d", m, head.Size)
		}
		fmt.Printf("consistency %8d → %8d: OK (%d hashes)\n", m, head.Size, len(proof))
	}
	return nil
}
