package blocklist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// LoadSnapshotDir rebuilds a Collection from a directory of daily feed
// snapshot files named "<feed>_<YYYY-MM-DD>.txt" in plain format — the
// layout cmd/blgen writes and a scraper of real feeds would produce.
// Files whose feed name is not in the registry are reported in skipped;
// observation days are derived from the dates found.
func LoadSnapshotDir(dir string, registry *Registry) (c *Collection, skipped []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type snapshot struct {
		feedIdx int
		date    time.Time
		path    string
	}
	var snaps []snapshot
	daySet := make(map[time.Time]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".txt") {
			continue
		}
		base := strings.TrimSuffix(e.Name(), ".txt")
		sep := strings.LastIndexByte(base, '_')
		if sep < 0 {
			skipped = append(skipped, e.Name())
			continue
		}
		feedName, dateStr := base[:sep], base[sep+1:]
		date, derr := time.Parse("2006-01-02", dateStr)
		if derr != nil {
			skipped = append(skipped, e.Name())
			continue
		}
		idx, ok := registry.Index(feedName)
		if !ok {
			skipped = append(skipped, e.Name())
			continue
		}
		snaps = append(snaps, snapshot{feedIdx: idx, date: date, path: filepath.Join(dir, e.Name())})
		daySet[date] = true
	}
	if len(snaps) == 0 {
		return nil, skipped, fmt.Errorf("blocklist: no snapshot files in %s", dir)
	}
	days := make([]time.Time, 0, len(daySet))
	for d := range daySet {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Before(days[j]) })
	dayIdx := make(map[time.Time]int, len(days))
	for i, d := range days {
		dayIdx[d] = i
	}
	c = NewCollection(registry, days)
	for _, s := range snaps {
		f, ferr := os.Open(s.path)
		if ferr != nil {
			return nil, skipped, ferr
		}
		res, perr := Parse(f)
		f.Close()
		if perr != nil {
			return nil, skipped, fmt.Errorf("%s: %w", s.path, perr)
		}
		if rerr := c.Record(dayIdx[s.date], s.feedIdx, res.Addrs); rerr != nil {
			return nil, skipped, rerr
		}
	}
	return c, skipped, nil
}
