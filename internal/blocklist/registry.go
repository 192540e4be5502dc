// Package blocklist models IPv4 blocklists: feed identities (the paper's
// 151-list BLAG-derived dataset, Table 2), daily snapshot collections over
// the measurement windows, listing histories with durations (Fig 7), and
// the plain-format list parser.
package blocklist

import (
	"fmt"
	"sort"
)

// Type is the coarse category of malicious activity a feed tracks; it
// drives both the synthetic maintainers' observation behaviour and the
// operator-survey breakdown of Fig 9.
type Type string

// Feed categories found across the paper's dataset.
const (
	Spam       Type = "spam"
	Reputation Type = "reputation"
	DDoS       Type = "ddos"
	Bruteforce Type = "bruteforce"
	Ransomware Type = "ransomware"
	SSH        Type = "ssh"
	HTTP       Type = "http"
	Backdoor   Type = "backdoor"
	FTP        Type = "ftp"
	Banking    Type = "banking"
	VOIP       Type = "voip"
	Malware    Type = "malware"
	Scan       Type = "scan"
)

// Feed identifies one blocklist.
type Feed struct {
	// Name is unique within a registry, e.g. "badips-07".
	Name string
	// Maintainer is the publishing organisation (Table 2 rows).
	Maintainer string
	// Type is the feed's primary category.
	Type Type
	// Surveyed marks maintainers that operators in the paper's survey
	// reported using (the * rows of Table 2).
	Surveyed bool
}

// Registry is an ordered set of feeds.
type Registry struct {
	Feeds  []Feed
	byName map[string]int
}

// NewRegistry builds a registry from feeds; names must be unique.
func NewRegistry(feeds []Feed) (*Registry, error) {
	r := &Registry{Feeds: feeds, byName: make(map[string]int, len(feeds))}
	for i, f := range feeds {
		if _, dup := r.byName[f.Name]; dup {
			return nil, fmt.Errorf("blocklist: duplicate feed name %q", f.Name)
		}
		r.byName[f.Name] = i
	}
	return r, nil
}

// Len returns the number of feeds.
func (r *Registry) Len() int { return len(r.Feeds) }

// Index returns the position of the named feed.
func (r *Registry) Index(name string) (int, bool) {
	i, ok := r.byName[name]
	return i, ok
}

// MaintainerCounts reproduces Table 2: each maintainer with its number of
// feeds, sorted by count descending then name.
func (r *Registry) MaintainerCounts() []MaintainerCount {
	counts := make(map[string]int)
	surveyed := make(map[string]bool)
	for _, f := range r.Feeds {
		counts[f.Maintainer]++
		if f.Surveyed {
			surveyed[f.Maintainer] = true
		}
	}
	out := make([]MaintainerCount, 0, len(counts))
	for m, c := range counts {
		out = append(out, MaintainerCount{Maintainer: m, Count: c, Surveyed: surveyed[m]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Maintainer < out[j].Maintainer
	})
	return out
}

// MaintainerCount is one Table 2 row.
type MaintainerCount struct {
	Maintainer string
	Count      int
	Surveyed   bool
}

// maintainerSpec drives StandardRegistry.
type maintainerSpec struct {
	name     string
	count    int
	typ      Type
	surveyed bool
}

// standardMaintainers transcribes Table 2 of the paper. The printed rows sum
// to 149 although the paper's headline count is 151; we encode the rows as
// printed and derive totals from them (see EXPERIMENTS.md).
var standardMaintainers = []maintainerSpec{
	{"Bad IPs", 44, Reputation, false},
	{"Bambenek", 22, Malware, false},
	{"Abuse.ch", 10, Malware, true},
	{"Normshield", 9, Reputation, false},
	{"Blocklist.de", 9, Bruteforce, true},
	{"Malware Bytes", 9, Malware, false},
	{"Project Honeypot", 4, Spam, true},
	{"CoinBlockerLists", 4, Malware, false},
	{"NoThink", 3, Bruteforce, false},
	{"Emerging Threats", 2, Reputation, false},
	{"ImproWare", 2, Spam, false},
	{"Botvrij.EU", 2, Malware, false},
	{"IP Finder", 1, Reputation, false},
	{"Cleantalk", 1, Spam, true},
	{"Sblam!", 1, Spam, false},
	{"Nixspam", 1, Spam, true},
	{"Blocklist Project", 1, Reputation, false},
	{"BruteforceBlocker", 1, Bruteforce, false},
	{"Cruzit", 1, Reputation, false},
	{"Haley", 1, SSH, false},
	{"Botscout", 1, Spam, false},
	{"My IP", 1, Reputation, false},
	{"Taichung", 1, Scan, false},
	{"Cisco Talos", 1, Reputation, true},
	{"Alienvault", 1, Reputation, false},
	{"Binary Defense", 1, Reputation, false},
	{"GreenSnow", 1, Bruteforce, false},
	{"Snort Labs", 1, Reputation, false},
	{"GPF Comics", 1, Spam, false},
	{"Turris", 1, Reputation, false},
	{"CINSscore", 1, Reputation, false},
	{"Nullsecure", 1, Malware, false},
	{"DYN", 1, Malware, false},
	{"Malware domain list", 1, Malware, false},
	{"Malc0de", 1, Malware, false},
	{"URLVir", 1, Malware, false},
	{"Threatcrowd", 1, Malware, false},
	{"CyberCrime", 1, Malware, false},
	{"IBM X-Force", 1, Reputation, false},
	{"VXVault", 1, Malware, false},
	{"Stopforumspam", 1, Spam, true},
}

// StandardRegistry builds the paper's feed registry from the Table 2
// maintainers; multi-feed maintainers get numbered feeds ("bad-ips-01"...).
func StandardRegistry() *Registry {
	var feeds []Feed
	for _, m := range standardMaintainers {
		for i := 0; i < m.count; i++ {
			name := slugify(m.name)
			if m.count > 1 {
				name = fmt.Sprintf("%s-%02d", name, i+1)
			}
			feeds = append(feeds, Feed{
				Name:       name,
				Maintainer: m.name,
				Type:       m.typ,
				Surveyed:   m.surveyed,
			})
		}
	}
	r, err := NewRegistry(feeds)
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return r
}

func slugify(s string) string {
	out := make([]byte, 0, len(s))
	prevDash := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			out = append(out, c)
			prevDash = false
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
			prevDash = false
		default:
			if !prevDash && len(out) > 0 {
				out = append(out, '-')
				prevDash = true
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '-' {
		out = out[:len(out)-1]
	}
	return string(out)
}
