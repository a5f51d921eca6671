package persist

import (
	"go/ast"
	"go/token"
	"strings"
)

// directive is one parsed //persistlint:ignore comment. Directives are
// shared by pointer so suppression can mark them used; a reasoned
// directive that suppresses nothing by the end of the run is itself a
// defect (PL007 — the analysis got stronger, the excuse went stale).
type directive struct {
	pos    token.Position
	code   string // "PL001" or a comma list split into codes
	codes  []string
	reason string
	used   bool // suppressed at least one finding this run
}

func (d *directive) matches(code string) bool {
	for _, c := range d.codes {
		if c == code || c == "*" {
			return true
		}
	}
	return false
}

// parseDirectiveComment recognizes "//persistlint:ignore CODE[,CODE] reason".
// A leading space after // is tolerated; the reason is everything after
// the code list.
func parseDirectiveComment(fset *token.FileSet, c *ast.Comment) (*directive, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "persistlint:ignore") {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "persistlint:ignore"))
	code, reason, _ := strings.Cut(rest, " ")
	d := &directive{
		pos:    fset.Position(c.Pos()),
		code:   code,
		reason: strings.TrimSpace(reason),
	}
	for _, cd := range strings.Split(code, ",") {
		if cd = strings.TrimSpace(cd); cd != "" {
			d.codes = append(d.codes, cd)
		}
	}
	if len(d.codes) == 0 {
		return nil, false
	}
	return d, true
}

// parseDirectives indexes every ignore directive in the file by the
// line it sits on.
func parseDirectives(fset *token.FileSet, f *ast.File) map[int][]*directive {
	out := map[int][]*directive{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirectiveComment(fset, c); ok {
				out[d.pos.Line] = append(out[d.pos.Line], d)
			}
		}
	}
	return out
}

// parseSeqlockDirectives indexes //persistlint:seqlock comments by
// line. They attach to the struct field declared on the same line or
// the line below (matching how doc comments sit above declarations).
func parseSeqlockDirectives(fset *token.FileSet, f *ast.File) map[int]bool {
	seqs := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == "persistlint:seqlock" || strings.HasPrefix(text, "persistlint:seqlock ") {
				seqs[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return seqs
}

// fieldSeqlock reports whether a //persistlint:seqlock directive
// attaches to the field declared at the given line.
func (fi *fileInfo) fieldSeqlock(line int) bool {
	return fi.seqDecls[line] || fi.seqDecls[line-1]
}

// directiveMatches finds the first directive in the list covering the
// code with a non-empty reason (reasonless directives never suppress).
// The match is recorded on the directive so stale ones can be reported.
func directiveMatches(dirs []*directive, code string) bool {
	for _, d := range dirs {
		if d.reason != "" && d.matches(code) {
			d.used = true
			return true
		}
	}
	return false
}
