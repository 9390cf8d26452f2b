package metrics

import (
	"io"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type of the Prometheus text exposition
// format produced by WritePrometheus.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), in registration order. The whole
// exposition is built in memory first (scrapes are small — tens of
// families) and written with one Write, so a slow reader never holds the
// registry lock. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	r.mu.Lock()
	for _, f := range r.families {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, s := range f.series {
			if s.hist != nil {
				writeHistogram(&b, f.name, s.labels, s.hist(), s.seconds)
				continue
			}
			b.WriteString(f.name)
			b.WriteString(s.labels)
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.value()))
			b.WriteByte('\n')
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative buckets with `le`
// upper bounds, the +Inf catch-all, then _sum and _count — the +Inf bucket's
// count, so the two always agree.
func writeHistogram(b *strings.Builder, name, labels string, h HistogramCounts, seconds bool) {
	var cum int64
	scale := 1.0
	if seconds {
		scale = 1e-9
	}
	for i := 0; i < numBuckets; i++ {
		c := h.Buckets[i]
		cum += c
		if c == 0 && i < numBuckets-1 {
			// Sparse rendering: skip empty buckets (cumulative counts
			// stay correct; parsers interpolate between rendered
			// bounds). The final +Inf bucket always renders.
			continue
		}
		le := "+Inf"
		if i < numBuckets-1 {
			_, hi := bucketBounds(i)
			le = formatFloat(hi * scale)
		}
		b.WriteString(name)
		b.WriteString(bucketLabels(labels, le))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(float64(h.Sum) * scale))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
}

// bucketLabels merges a series' label block with the bucket's le label.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `_bucket{le="` + le + `"}`
	}
	return "_bucket" + strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
}

// escapeHelp escapes backslash and newline in help text per the format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
