package dns

import (
	"fmt"
	"strings"
)

// Domain names throughout the package are held in canonical presentation
// form: fully qualified, lowercase ASCII (IDN labels already in ACE form),
// with a trailing root dot. The root itself is ".". Canonical form makes
// names directly comparable with ==, usable as map keys, and sortable.

// Canonical normalizes a presentation-form name: lowercases it and appends
// the root dot if missing. It does not validate label lengths: the
// encoder refuses a name whose labels are malformed.
func Canonical(name string) string {
	if name == "" || name == "." {
		return "."
	}
	name = strings.ToLower(name)
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	return name
}

// validName reports whether name is a well-formed canonical domain name:
// fully qualified, total length ≤ 255 octets in wire form, each label
// 1–63 octets of printable ASCII. It takes string or []byte, so the wire
// decoder can validate scratch bytes without materializing a string, and
// walks the name once instead of splitting it into a label slice.
func validName[T string | []byte](name T) bool {
	if len(name) == 1 && name[0] == '.' {
		return true
	}
	if len(name) == 0 || name[len(name)-1] != '.' {
		return false
	}
	wire := 1 // terminal root byte
	start := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '.' {
			l := i - start
			if l == 0 || l > 63 {
				return false
			}
			wire += l + 1
			start = i + 1
		} else if c < '!' || c > '~' {
			return false
		}
	}
	return wire <= 255
}

// fqdnShape holds the checks of validName that need no label walk, for
// a name other than the root: it ends in the root dot, and its wire form
// (one octet more than the presentation form) fits in 255 octets.
func fqdnShape(name string) bool {
	return len(name) > 0 && len(name) <= 254 && name[len(name)-1] == '.'
}

// labelEnd returns the index of the dot that ends the label of name
// starting at pos, or -1 when that label is empty, longer than 63
// octets or holds a byte outside printable ASCII. name passed fqdnShape,
// so a dot ends every label. fqdnShape and labelEnd over every label are
// validName, split so the encoders check each label as they copy it.
func labelEnd(name string, pos int) int {
	i := pos
	for ; name[i] != '.'; i++ {
		if c := name[i]; c < '!' || c > '~' {
			return -1
		}
	}
	if l := i - pos; l == 0 || l > 63 {
		return -1
	}
	return i
}

// CountLabels returns the number of labels in a canonical name, not
// counting the root: CountLabels("example.ru.") is 2, CountLabels(".") 0.
func CountLabels(name string) int {
	if name == "." || name == "" {
		return 0
	}
	return strings.Count(strings.TrimSuffix(name, "."), ".") + 1
}

// Parent returns the name with its leftmost label removed;
// Parent("example.ru.") is "ru.", Parent("ru.") is ".", Parent(".") is ".".
func Parent(name string) string {
	if name == "." || name == "" {
		return "."
	}
	i := strings.IndexByte(name, '.')
	if i < 0 || i == len(name)-1 {
		return "."
	}
	return name[i+1:]
}

// TLD returns the rightmost label of a canonical name (without the root
// dot), or "" for the root itself. TLD("ns1.example.com.") is "com". The
// result is a substring of name: the analyses call this per name-server
// host per classified epoch.
func TLD(name string) string {
	name = strings.TrimSuffix(name, ".")
	return name[strings.LastIndexByte(name, '.')+1:]
}

// IsSubdomain reports whether child is equal to or ends with parent
// (both canonical). Every name is a subdomain of the root.
func IsSubdomain(child, parent string) bool {
	if parent == "." {
		return true
	}
	if child == parent {
		return true
	}
	return strings.HasSuffix(child, "."+parent)
}

// appendName encodes a canonical name in uncompressed wire form without
// allocating intermediate label slices, validating each label as it
// copies it.
func appendName(b []byte, name string) ([]byte, error) {
	if name == "." {
		return append(b, 0), nil
	}
	if !fqdnShape(name) {
		return nil, fmt.Errorf("dns: invalid name %q", name)
	}
	for pos := 0; pos < len(name); {
		dot := labelEnd(name, pos)
		if dot < 0 {
			return nil, fmt.Errorf("dns: invalid name %q", name)
		}
		b = append(b, byte(dot-pos))
		b = append(b, name[pos:dot]...)
		pos = dot + 1
	}
	return append(b, 0), nil
}
