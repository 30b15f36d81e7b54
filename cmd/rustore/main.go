// Command rustore inspects a saved measurement store (the binary file
// written by `whereru -store FILE` or Study.SaveStore): summary
// statistics, per-domain configuration history, and CSV export of any
// domain's longitudinal record — the raw-data workbench next to
// cmd/whereru's finished report.
//
// Usage:
//
//	rustore info    FILE
//	rustore domains FILE [prefix]
//	rustore history FILE DOMAIN
//	rustore csv     FILE DOMAIN > out.csv
//	rustore fsck    FILE [-repair]
//	rustore tail    FILE [-offset N] [-poll D]
//
// info describes either format — store ("WRST") or sweep journal
// ("WRJL"): format version, domain count, sweep day range and missing
// sweeps. fsck verifies the per-section checksums of either format,
// reports what a torn or bit-flipped file still holds, and with -repair
// truncates a journal's torn tail in place or rewrites a store to its
// recoverable contents. tail follows a journal as a collector appends to
// it — `tail -f` with WRJL framing — printing one line per durable
// segment until interrupted; -offset resumes after a previously consumed
// prefix (a prior run's printed offset).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"whereru/internal/dns"
	"whereru/internal/iofault"
	"whereru/internal/report"
	"whereru/internal/store"
)

// fsys routes fsck's repair writes through the fault-injection FS
// abstraction; tests and the chaos matrix swap in an iofault.FaultFS to
// crash or starve the repair itself.
var fsys iofault.FS = iofault.OS

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rustore:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: rustore info|domains|history|csv|fsck|tail FILE [args]")
	}
	cmd, path := args[0], args[1]
	switch cmd {
	case "fsck":
		// fsck does its own file handling: it must read damaged files the
		// strict decoder below would reject.
		return fsck(path, len(args) > 2 && args[2] == "-repair")
	case "info":
		// info shares fsck's tolerant open path so it can describe both
		// formats (store and journal) including damaged files.
		return info(path)
	case "tail":
		return tail(path, args[2:])
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := store.Read(f)
	if err != nil {
		return err
	}
	switch cmd {
	case "domains":
		prefix := ""
		if len(args) > 2 {
			prefix = dns.Canonical(args[2])
			prefix = strings.TrimSuffix(prefix, ".")
		}
		return domains(st, prefix)
	case "history":
		if len(args) < 3 {
			return fmt.Errorf("usage: rustore history FILE DOMAIN")
		}
		return history(st, dns.Canonical(args[2]))
	case "csv":
		if len(args) < 3 {
			return fmt.Errorf("usage: rustore csv FILE DOMAIN")
		}
		return csvExport(st, dns.Canonical(args[2]))
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// tail follows a sweep journal as it grows, printing one line per
// complete, checksum-valid segment until interrupted. Torn or in-flight
// tails are waited out, exactly as the serve layer's follow watcher
// does.
func tail(path string, args []string) error {
	fl := flag.NewFlagSet("tail", flag.ContinueOnError)
	offset := fl.Int64("offset", 0, "byte offset to resume from (a previously printed offset)")
	poll := fl.Duration("poll", store.DefaultTailPoll, "polling interval")
	if err := fl.Parse(args); err != nil {
		return err
	}
	tl, err := store.OpenTail(path, *offset)
	if err != nil {
		return err
	}
	defer tl.Close()
	tl.SetPoll(*poll)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for {
		rec, err := tl.Next(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if rec.Missing {
			fmt.Printf("%s missing offset=%d\n", rec.Day, tl.Offset())
			continue
		}
		fmt.Printf("%s sweep domains=%d failed=%d nxdomain=%d unreachable=%d measurements=%d offset=%d\n",
			rec.Day, rec.Stats.Domains, rec.Stats.Failed, rec.Stats.NXDomain,
			rec.Stats.Unreachable, len(rec.Measurements), tl.Offset())
	}
}

// byFormat dispatches on the file's magic: what fsck and info both do
// first.
func byFormat(verb, path string, onStore, onJournal func() error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var magic [4]byte
	_, err = io.ReadFull(f, magic[:])
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %s: too short to hold a header", verb, path)
	}
	switch string(magic[:]) {
	case "WRST":
		return onStore()
	case "WRJL":
		return onJournal()
	default:
		return fmt.Errorf("%s: %s: unrecognized magic %q", verb, path, magic)
	}
}

// fsck verifies a store or journal file by its magic, reports recoverable
// damage, and optionally repairs it.
func fsck(path string, repair bool) error {
	return byFormat("fsck", path,
		func() error { return fsckStore(path, repair) },
		func() error { return fsckJournal(path, repair) })
}

// readStore is fsck's and info's tolerant open, printing the format line.
func readStore(verb, path string) (*store.Store, *store.Recovery, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, rec, err := store.ReadRecover(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %s: %w", verb, path, err)
	}
	fmt.Printf("%s: store format v%d\n", path, rec.Version)
	return st, rec, nil
}

func fsckStore(path string, repair bool) error {
	st, rec, err := readStore("fsck", path)
	if err != nil {
		return err
	}
	fmt.Printf("  domains:    %d of %d recovered\n", rec.Domains, rec.ExpectedDomains)
	fmt.Printf("  good bytes: %d\n", rec.GoodBytes)
	if !rec.Damaged {
		fmt.Println("  clean: all checksums verified")
		return nil
	}
	fmt.Printf("  DAMAGED: %s\n", rec.Reason)
	if !repair {
		return fmt.Errorf("fsck: %s holds recoverable damage (re-run with -repair to rewrite the recovered contents)", path)
	}
	// Rewrite atomically and durably: temp file, fsync, rename, directory
	// fsync — a power loss at any point leaves either the damaged (still
	// recoverable) original or the complete repair, never neither. Repair
	// always writes the current (v3) format.
	err = iofault.WriteAtomic(fsys, path, func(w io.Writer) error {
		_, err := st.WriteTo(w)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("  repaired: rewrote %d recovered domains\n", rec.Domains)
	return nil
}

func fsckJournal(path string, repair bool) error {
	replay, err := store.ReplayJournalFile(path, nil) // validate only
	if err != nil {
		return fmt.Errorf("fsck: %s: %w", path, err)
	}
	fmt.Printf("%s: sweep journal format v%d\n", path, replay.Version)
	fmt.Printf("  sweeps:     %d replayable segments\n", len(replay.Sweeps))
	fmt.Printf("  good bytes: %d\n", replay.GoodBytes)
	if !replay.Torn() {
		fmt.Println("  clean: all segment checksums verified")
		return nil
	}
	fmt.Printf("  DAMAGED: %d torn trailing bytes\n", replay.TornBytes)
	if !repair {
		return fmt.Errorf("fsck: %s has a torn tail (re-run with -repair to truncate it)", path)
	}
	after, err := store.RepairJournalFS(fsys, path)
	if err != nil {
		return err
	}
	fmt.Printf("  repaired: truncated to %d bytes, %d sweeps retained\n", after.GoodBytes, len(after.Sweeps))
	return nil
}

// info describes a store or journal file: format version, day range,
// domain count and missing sweeps. It opens via the same tolerant path
// as fsck, so a damaged file still yields a description of its intact
// prefix (plus a damage note).
func info(path string) error {
	return byFormat("info", path,
		func() error { return infoStore(path) },
		func() error { return infoJournal(path) })
}

func infoStore(path string) error {
	st, rec, err := readStore("info", path)
	if err != nil {
		return err
	}
	describeStore(st)
	if rec.Damaged {
		fmt.Printf("  DAMAGED: %s (run fsck -repair)\n", rec.Reason)
	}
	return nil
}

func infoJournal(path string) error {
	// Replay the journal's measurements into a fresh store so the same
	// day-range/domain/missing summary applies to both formats.
	st := store.New()
	replay, err := store.ReplayJournalFile(path, st)
	if err != nil {
		return fmt.Errorf("info: %s: %w", path, err)
	}
	fmt.Printf("%s: sweep journal format v%d\n", path, replay.Version)
	describeStore(st)
	if replay.Torn() {
		fmt.Printf("  DAMAGED: %d torn trailing bytes (run fsck -repair)\n", replay.TornBytes)
	}
	return nil
}

func describeStore(st *store.Store) {
	stats := st.Stats()
	sweeps := st.Sweeps()
	fmt.Printf("  domains:       %d\n", stats.Domains)
	fmt.Printf("  epochs:        %d\n", stats.Epochs)
	fmt.Printf("  naive records: %d (%.1fx compression)\n", stats.NaiveRecords,
		float64(stats.NaiveRecords)/float64(max(stats.Epochs, 1)))
	if len(sweeps) > 0 {
		fmt.Printf("  sweeps:        %d (%s .. %s)\n", len(sweeps), sweeps[0], sweeps[len(sweeps)-1])
	}
	if missing := st.MissingSweeps(); len(missing) > 0 {
		fmt.Printf("  missing:       %d sweeps (", len(missing))
		for i, d := range missing {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Print(d)
		}
		fmt.Println(")")
	}
	ms := st.MemStats()
	fmt.Println("  interning:")
	fmt.Printf("    distinct configs: %d (%.1fx epoch dedup)\n", ms.DistinctConfigs,
		float64(max(ms.Epochs, 1))/float64(max(int64(ms.DistinctConfigs), 1)))
	fmt.Printf("    pooled hosts:     %d strings, %d host slots, %d addr slots\n",
		ms.InternedHosts, ms.HostSlots, ms.AddrSlots)
	fmt.Printf("    resident bytes:   %d (columns %d, intern %d, index %d)\n",
		ms.ResidentBytes(), ms.ColumnBytes, ms.InternBytes, ms.IndexBytes)
	fmt.Printf("    bytes/epoch:      %.1f (naive would hold %d records)\n",
		ms.BytesPerEpoch(), ms.NaiveRecords)
}

func domains(st *store.Store, prefix string) error {
	n := 0
	for _, d := range st.Domains() {
		if prefix != "" && !strings.HasPrefix(d, prefix) {
			continue
		}
		fmt.Println(d)
		n++
	}
	fmt.Fprintf(os.Stderr, "%d domains\n", n)
	return nil
}

func history(st *store.Store, domain string) error {
	h := st.History(domain)
	if len(h) == 0 {
		return fmt.Errorf("no measurements for %s", domain)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("configuration history of %s (%d epochs)", domain, len(h)),
		Headers: []string{"from", "NS hosts", "NS addrs", "apex addrs", "MX hosts", "failed"},
	}
	for _, m := range h {
		t.AddRow(m.Day.String(),
			strings.Join(m.Config.NSHosts, " "),
			joinAddrs(m.Config.NSAddrs, " "),
			joinAddrs(m.Config.ApexAddrs, " "),
			strings.Join(m.Config.MXHosts, " "),
			fmt.Sprint(m.Config.Failed))
	}
	_, err := t.WriteTo(os.Stdout)
	return err
}

func joinAddrs(addrs []netip.Addr, sep string) string {
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = a.String()
	}
	return strings.Join(parts, sep)
}

func csvExport(st *store.Store, domain string) error {
	h := st.History(domain)
	if len(h) == 0 {
		return fmt.Errorf("no measurements for %s", domain)
	}
	rows := make([][]string, 0, len(h))
	for _, m := range h {
		rows = append(rows, []string{
			m.Day.String(),
			strings.Join(m.Config.NSHosts, ";"),
			joinAddrs(m.Config.NSAddrs, ";"),
			joinAddrs(m.Config.ApexAddrs, ";"),
			strings.Join(m.Config.MXHosts, ";"),
			fmt.Sprint(m.Config.Failed),
		})
	}
	return report.CSV(os.Stdout, []string{"from", "ns_hosts", "ns_addrs", "apex_addrs", "mx_hosts", "failed"}, rows)
}
