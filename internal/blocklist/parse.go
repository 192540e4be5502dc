package blocklist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// ParseResult carries the addresses found in a feed file.
type ParseResult struct {
	Addrs *iputil.Set
	// Skipped counts unparseable non-comment lines (published lists are
	// frequently dirty; parsers tolerate and count).
	Skipped int
}

// Parse reads a feed file in the plain format, the most common one
// (Nixspam, Stopforumspam, ...): one IPv4 address per line; '#' and ';'
// start comments.
func Parse(r io.Reader) (*ParseResult, error) {
	res := &ParseResult{Addrs: iputil.NewSet()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		line := stripComment(sc.Text())
		if line == "" {
			continue
		}
		// Some feeds append per-line metadata after whitespace.
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			line = line[:i]
		}
		a, err := iputil.ParseAddr(line)
		if err != nil {
			res.Skipped++
			continue
		}
		res.Addrs.Add(a)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

func stripComment(line string) string {
	if i := strings.IndexAny(line, "#;"); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// WritePlain writes addresses one per line with an optional header comment.
func WritePlain(w io.Writer, addrs *iputil.Set, header string) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		if _, err := fmt.Fprintf(bw, "# %s\n", header); err != nil {
			return err
		}
	}
	for _, a := range addrs.Sorted() {
		if _, err := fmt.Fprintln(bw, a); err != nil {
			return err
		}
	}
	return bw.Flush()
}
