// Package idn implements Punycode (RFC 3492) and the small subset of IDNA
// needed to handle internationalized domain names in the reproduction —
// most importantly the Cyrillic ccTLD .рф, whose ASCII-compatible encoding
// is xn--p1ai. Zone files and the DNS wire format carry only ASCII labels,
// so every .рф name the pipeline generates or is asked about is encoded
// through this package.
package idn

import (
	"errors"
	"fmt"
	"strings"
)

// ACEPrefix is the IDNA ASCII-compatible-encoding prefix.
const ACEPrefix = "xn--"

// Punycode bootstring parameters from RFC 3492 §5.
const (
	base        = 36
	tmin        = 1
	tmax        = 26
	skew        = 38
	damp        = 700
	initialBias = 72
	initialN    = 128
)

// ErrOverflow is returned when encoding would overflow the code-point space.
var ErrOverflow = errors.New("idn: punycode overflow")

func adapt(delta, numPoints int, firstTime bool) int {
	if firstTime {
		delta /= damp
	} else {
		delta /= 2
	}
	delta += delta / numPoints
	k := 0
	for delta > ((base-tmin)*tmax)/2 {
		delta /= base - tmin
		k += base
	}
	return k + (base-tmin+1)*delta/(delta+skew)
}

func encodeDigit(d int) byte {
	switch {
	case d < 26:
		return byte('a' + d)
	case d < 36:
		return byte('0' + d - 26)
	}
	panic("idn: internal error: digit out of range")
}

// EncodeLabel punycode-encodes a single label. ASCII-only labels are
// returned unchanged (without the ACE prefix); labels containing non-ASCII
// runes are encoded and prefixed with "xn--".
func EncodeLabel(label string) (string, error) {
	ascii := true
	for _, r := range label {
		if r >= 0x80 {
			ascii = false
			break
		}
	}
	if ascii {
		return label, nil
	}
	runes := []rune(label)
	var out strings.Builder
	out.WriteString(ACEPrefix)
	basicCount := 0
	for _, r := range runes {
		if r < 0x80 {
			out.WriteByte(byte(r))
			basicCount++
		}
	}
	if basicCount > 0 {
		out.WriteByte('-')
	}
	n, delta, bias := initialN, 0, initialBias
	handled := basicCount
	for handled < len(runes) {
		m := int(^uint32(0) >> 1)
		for _, r := range runes {
			if int(r) >= n && int(r) < m {
				m = int(r)
			}
		}
		delta += (m - n) * (handled + 1)
		if delta < 0 {
			return "", ErrOverflow
		}
		n = m
		for _, r := range runes {
			if int(r) < n {
				delta++
				if delta < 0 {
					return "", ErrOverflow
				}
				continue
			}
			if int(r) > n {
				continue
			}
			q := delta
			for k := base; ; k += base {
				t := k - bias
				if t < tmin {
					t = tmin
				} else if t > tmax {
					t = tmax
				}
				if q < t {
					break
				}
				out.WriteByte(encodeDigit(t + (q-t)%(base-t)))
				q = (q - t) / (base - t)
			}
			out.WriteByte(encodeDigit(q))
			bias = adapt(delta, handled+1, handled == basicCount)
			delta = 0
			handled++
		}
		delta++
		n++
	}
	return out.String(), nil
}

// ToASCII converts a possibly-internationalized dotted domain name to its
// ASCII-compatible form, lowercasing ASCII letters. A trailing root dot is
// preserved.
func ToASCII(name string) (string, error) {
	if name == "" || name == "." {
		return name, nil
	}
	trailing := strings.HasSuffix(name, ".")
	trimmed := strings.TrimSuffix(name, ".")
	labels := strings.Split(trimmed, ".")
	for i, l := range labels {
		if l == "" {
			return "", fmt.Errorf("idn: empty label in %q", name)
		}
		enc, err := EncodeLabel(strings.ToLower(l))
		if err != nil {
			return "", fmt.Errorf("idn: encoding label %q: %w", l, err)
		}
		if len(enc) > 63 {
			return "", fmt.Errorf("idn: label %q exceeds 63 octets after encoding", l)
		}
		labels[i] = enc
	}
	out := strings.Join(labels, ".")
	if trailing {
		out += "."
	}
	return out, nil
}

// RFTLDASCII is the ACE spelling of the Cyrillic Russian Federation
// ccTLD (.рф) used throughout the paper.
const RFTLDASCII = "xn--p1ai"
