package world

import (
	"hash/fnv"

	"whereru/internal/simtime"
)

// Mail-service modeling (measurement extension). The paper's platform,
// OpenINTEL, also collects MX records, and its companion work (Liu et
// al., IMC '21, cited in §5) characterizes mail-provider concentration —
// with Russia singled out as bucking the Western-centralization trend via
// heavily domestic mail. This extension reproduces that angle: domains get
// a deterministic mail configuration dominated by Yandex/Mail.ru, and
// Google Workspace customers partially migrate after Google's March 10
// announcement.

// mailChoices maps a hash bucket (out of 100) to a mail provider key;
// "" means the domain publishes no MX, "host" means mail rides with the
// hosting provider.
type mailChoice struct {
	upTo int // cumulative bucket bound (exclusive)
	key  string
}

var mailChoices = []mailChoice{
	{34, "yandex"}, // Yandex.Mail dominates Russian domain mail
	{50, "mailru"}, // Mail.ru (VK) second
	{58, "google"}, // Google Workspace
	{88, "host"},   // mail with the hosting provider
	{100, ""},      // no MX published
}

// mailBucket deterministically buckets a domain into [0,100).
func mailBucket(name string) int {
	h := fnv.New32()
	h.Write([]byte("mail:"))
	h.Write([]byte(name))
	return int(h.Sum32() % 100)
}

// MailProviderFor returns the provider serving mail for domain d on day
// (nil = the domain publishes no MX). Google-Workspace domains partially
// migrate to domestic providers after Google's March 10, 2022
// announcement.
func (w *World) MailProviderFor(d int, day simtime.Day) *Provider {
	bucket := mailBucket(w.domains.Name(d))
	key := ""
	for _, c := range mailChoices {
		if bucket < c.upTo {
			key = c.key
			break
		}
	}
	switch key {
	case "":
		return nil
	case "host":
		cfg, ok := w.domains.configAt(d, day)
		if !ok {
			return nil
		}
		// The first hosting provider (every one has a pool); one without
		// mail service falls back to Yandex.
		if p := w.rr.hostSets[cfg.Host][0]; p.MailHost != "" {
			return p
		}
		return w.providers["yandex"]
	case "google":
		// After Google's announcement, a third of Workspace customers
		// repatriate — split between Yandex and Mail.ru.
		if day >= GoogleStmtDay.Add(14) && bucket%3 == 0 {
			if bucket%2 == 0 {
				return w.providers["yandex"]
			}
			return w.providers["mailru"]
		}
		return w.providers["google"]
	default:
		return w.providers[key]
	}
}
