package idn

import (
	"errors"
	"strings"
)

// The decoder is test code: no binary turns an ACE name back into
// Unicode. It is the oracle EncodeLabel and ToASCII are judged against in
// the round trips (TestToUnicode, FuzzDecodeLabel, the examples).

// ErrInvalid is returned for malformed punycode input.
var ErrInvalid = errors.New("idn: invalid punycode")

func decodeDigit(c byte) (int, bool) {
	switch {
	case '0' <= c && c <= '9':
		return int(c-'0') + 26, true
	case 'a' <= c && c <= 'z':
		return int(c - 'a'), true
	case 'A' <= c && c <= 'Z':
		return int(c - 'A'), true
	}
	return 0, false
}

// DecodeLabel decodes a single ACE label (with or without the "xn--"
// prefix back into Unicode. Labels without the prefix are returned as-is.
func DecodeLabel(label string) (string, error) {
	if !strings.HasPrefix(strings.ToLower(label), ACEPrefix) {
		return label, nil
	}
	encoded := label[len(ACEPrefix):]
	var output []rune
	pos := 0
	if i := strings.LastIndexByte(encoded, '-'); i >= 0 {
		for _, c := range []byte(encoded[:i]) {
			if c >= 0x80 {
				return "", ErrInvalid
			}
			output = append(output, rune(c))
		}
		pos = i + 1
	}
	n, i, bias := initialN, 0, initialBias
	for pos < len(encoded) {
		oldi, w := i, 1
		for k := base; ; k += base {
			if pos >= len(encoded) {
				return "", ErrInvalid
			}
			digit, ok := decodeDigit(encoded[pos])
			pos++
			if !ok {
				return "", ErrInvalid
			}
			if digit > (int(^uint32(0)>>1)-i)/w {
				return "", ErrOverflow
			}
			i += digit * w
			t := k - bias
			if t < tmin {
				t = tmin
			} else if t > tmax {
				t = tmax
			}
			if digit < t {
				break
			}
			if w > int(^uint32(0)>>1)/(base-t) {
				return "", ErrOverflow
			}
			w *= base - t
		}
		bias = adapt(i-oldi, len(output)+1, oldi == 0)
		if i/(len(output)+1) > int(^uint32(0)>>1)-n {
			return "", ErrOverflow
		}
		n += i / (len(output) + 1)
		i %= len(output) + 1
		if n > 0x10FFFF {
			return "", ErrInvalid
		}
		output = append(output, 0)
		copy(output[i+1:], output[i:])
		output[i] = rune(n)
		i++
	}
	return string(output), nil
}

// ToUnicode converts an ACE-encoded dotted domain name back to Unicode.
// Labels that fail to decode are kept in their ASCII form, matching the
// lenient behavior of browsers and measurement tooling.
func ToUnicode(name string) string {
	trailing := strings.HasSuffix(name, ".")
	trimmed := strings.TrimSuffix(name, ".")
	if trimmed == "" {
		return name
	}
	labels := strings.Split(trimmed, ".")
	for i, l := range labels {
		if dec, err := DecodeLabel(l); err == nil {
			labels[i] = dec
		}
	}
	out := strings.Join(labels, ".")
	if trailing {
		out += "."
	}
	return out
}
