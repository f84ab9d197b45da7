package parser

import (
	"fmt"

	"repro/internal/chart"
	"repro/internal/expr"
)

// File is a parsed .cesc source: one or more named charts.
type File struct {
	Charts []Named
}

// Named pairs a chart with its declared name.
type Named struct {
	Name  string
	Chart chart.Chart
}

// Find returns the chart declared with the given name.
func (f *File) Find(name string) (chart.Chart, bool) {
	for _, n := range f.Charts {
		if n.Name == name {
			return n.Chart, true
		}
	}
	return nil, false
}

// Parse parses CESC source text and validates every chart.
func Parse(src string) (*File, error) {
	p := &parser{lex: newLexer(src), props: map[string]bool{}, events: map[string]bool{}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	f := &File{}
	for p.tok.kind != tkEOF {
		n, err := p.parseCesc()
		if err != nil {
			return nil, err
		}
		f.Charts = append(f.Charts, n)
	}
	if len(f.Charts) == 0 {
		return nil, fmt.Errorf("cesc: source declares no charts")
	}
	for _, n := range f.Charts {
		if err := n.Chart.Validate(); err != nil {
			return nil, fmt.Errorf("cesc: chart %q: %w", n.Name, err)
		}
	}
	return f, nil
}

// ParseChart parses source declaring exactly one chart.
func ParseChart(src string) (chart.Chart, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(f.Charts) != 1 {
		return nil, fmt.Errorf("cesc: expected exactly one chart, found %d", len(f.Charts))
	}
	return f.Charts[0].Chart, nil
}

// MustParseChart is ParseChart that panics on error; for fixtures.
func MustParseChart(src string) chart.Chart {
	c, err := ParseChart(src)
	if err != nil {
		panic(err)
	}
	return c
}

type parser struct {
	lex *lexer
	tok token
	// declared symbol kinds; guards default identifiers to propositions,
	// event positions are always events.
	props  map[string]bool
	events map[string]bool
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("cesc:%d:%d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errorf("expected %s, found %s", k, p.tok.describe())
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.tok.keyword(kw) {
		return p.errorf("expected %q, found %s", kw, p.tok.describe())
	}
	return p.advance()
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(tkIdent)
	if err != nil {
		return "", err
	}
	return t.text, nil
}

// parseCesc parses: cesc NAME { decl* chartExpr }.
func (p *parser) parseCesc() (Named, error) {
	if err := p.expectKeyword("cesc"); err != nil {
		return Named{}, err
	}
	name, err := p.ident()
	if err != nil {
		return Named{}, err
	}
	if _, err := p.expect(tkLBrace); err != nil {
		return Named{}, err
	}
	for p.tok.keyword("prop") || p.tok.keyword("event") {
		kind := p.tok.text
		if err := p.advance(); err != nil {
			return Named{}, err
		}
		names, err := p.identList()
		if err != nil {
			return Named{}, err
		}
		for _, n := range names {
			if kind == "prop" {
				p.props[n] = true
			} else {
				p.events[n] = true
			}
		}
		if _, err := p.expect(tkSemi); err != nil {
			return Named{}, err
		}
	}
	c, err := p.parseChartExpr()
	if err != nil {
		return Named{}, err
	}
	if _, err := p.expect(tkRBrace); err != nil {
		return Named{}, err
	}
	setName(c, name)
	return Named{Name: name, Chart: c}, nil
}

func setName(c chart.Chart, name string) {
	switch v := c.(type) {
	case *chart.SCESC:
		if v.ChartName == "" {
			v.ChartName = name
		}
	case *chart.Seq:
		v.ChartName = name
	case *chart.Par:
		v.ChartName = name
	case *chart.Alt:
		v.ChartName = name
	case *chart.Loop:
		v.ChartName = name
	case *chart.Implies:
		v.ChartName = name
	case *chart.Async:
		v.ChartName = name
	}
}

func (p *parser) identList() ([]string, error) {
	var out []string
	for {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, n)
		if p.tok.kind != tkComma {
			return out, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

// parseChartExpr dispatches on the leading keyword.
func (p *parser) parseChartExpr() (chart.Chart, error) {
	switch {
	case p.tok.keyword("scesc"):
		return p.parseSCESC()
	case p.tok.keyword("seq"):
		children, err := p.parseChartBlock("seq")
		if err != nil {
			return nil, err
		}
		return &chart.Seq{Children: children}, nil
	case p.tok.keyword("par"):
		children, err := p.parseChartBlock("par")
		if err != nil {
			return nil, err
		}
		return &chart.Par{Children: children}, nil
	case p.tok.keyword("alt"):
		children, err := p.parseChartBlock("alt")
		if err != nil {
			return nil, err
		}
		return &chart.Alt{Children: children}, nil
	case p.tok.keyword("loop"):
		return p.parseLoop()
	case p.tok.keyword("implies"):
		return p.parseImplies()
	case p.tok.keyword("async"):
		return p.parseAsync()
	default:
		return nil, p.errorf("expected a chart expression (scesc/seq/par/alt/loop/implies/async), found %s",
			p.tok.describe())
	}
}

func (p *parser) parseChartBlock(kw string) ([]chart.Chart, error) {
	if err := p.expectKeyword(kw); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkLBrace); err != nil {
		return nil, err
	}
	var children []chart.Chart
	for p.tok.kind != tkRBrace {
		c, err := p.parseChartExpr()
		if err != nil {
			return nil, err
		}
		children = append(children, c)
	}
	if _, err := p.expect(tkRBrace); err != nil {
		return nil, err
	}
	return children, nil
}

// parseLoop parses: loop [min, max|*] { chartExpr }.
func (p *parser) parseLoop() (chart.Chart, error) {
	if err := p.expectKeyword("loop"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkLBracket); err != nil {
		return nil, err
	}
	minTok, err := p.expect(tkNumber)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkComma); err != nil {
		return nil, err
	}
	max := chart.Unbounded
	switch p.tok.kind {
	case tkStar:
		if err := p.advance(); err != nil {
			return nil, err
		}
	case tkNumber:
		max = atoi(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
	default:
		return nil, p.errorf("expected repetition bound or '*', found %s", p.tok.describe())
	}
	if _, err := p.expect(tkRBracket); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkLBrace); err != nil {
		return nil, err
	}
	body, err := p.parseChartExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkRBrace); err != nil {
		return nil, err
	}
	return &chart.Loop{Body: body, Min: atoi(minTok.text), Max: max}, nil
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

// parseImplies parses: implies [maxDelay]? { chartExpr } { chartExpr }.
func (p *parser) parseImplies() (chart.Chart, error) {
	if err := p.expectKeyword("implies"); err != nil {
		return nil, err
	}
	maxDelay := 0
	if p.tok.kind == tkLBracket {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.expect(tkNumber)
		if err != nil {
			return nil, err
		}
		maxDelay = atoi(n.text)
		if _, err := p.expect(tkRBracket); err != nil {
			return nil, err
		}
	}
	parseOne := func() (chart.Chart, error) {
		if _, err := p.expect(tkLBrace); err != nil {
			return nil, err
		}
		c, err := p.parseChartExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRBrace); err != nil {
			return nil, err
		}
		return c, nil
	}
	trig, err := parseOne()
	if err != nil {
		return nil, err
	}
	cons, err := parseOne()
	if err != nil {
		return nil, err
	}
	return &chart.Implies{Trigger: trig, Consequent: cons, MaxDelay: maxDelay}, nil
}

// parseAsync parses: async { chartExpr+ ("cross" L -> L ";")* }.
func (p *parser) parseAsync() (chart.Chart, error) {
	if err := p.expectKeyword("async"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkLBrace); err != nil {
		return nil, err
	}
	a := &chart.Async{}
	for p.tok.kind != tkRBrace {
		if p.tok.keyword("cross") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			from, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkArrow); err != nil {
				return nil, err
			}
			to, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSemi); err != nil {
				return nil, err
			}
			a.CrossArrows = append(a.CrossArrows, chart.Arrow{From: from, To: to})
			continue
		}
		c, err := p.parseChartExpr()
		if err != nil {
			return nil, err
		}
		a.Children = append(a.Children, c)
	}
	if _, err := p.expect(tkRBrace); err != nil {
		return nil, err
	}
	return a, nil
}

// parseSCESC parses: scesc NAME on CLOCK { items }.
func (p *parser) parseSCESC() (chart.Chart, error) {
	if err := p.expectKeyword("scesc"); err != nil {
		return nil, err
	}
	sc := &chart.SCESC{}
	if p.tok.kind == tkIdent && !p.tok.keyword("on") {
		sc.ChartName = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	clk, err := p.ident()
	if err != nil {
		return nil, err
	}
	sc.Clock = clk
	if _, err := p.expect(tkLBrace); err != nil {
		return nil, err
	}
	for p.tok.kind != tkRBrace {
		switch {
		case p.tok.keyword("instances"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			names, err := p.identList()
			if err != nil {
				return nil, err
			}
			sc.Instances = append(sc.Instances, names...)
			if _, err := p.expect(tkSemi); err != nil {
				return nil, err
			}
		case p.tok.keyword("tick"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			line, err := p.parseGridLine()
			if err != nil {
				return nil, err
			}
			sc.Lines = append(sc.Lines, line)
		case p.tok.keyword("arrow"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			from, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkArrow); err != nil {
				return nil, err
			}
			to, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSemi); err != nil {
				return nil, err
			}
			sc.Arrows = append(sc.Arrows, chart.Arrow{From: from, To: to})
		default:
			return nil, p.errorf("expected instances/tick/arrow inside scesc, found %s", p.tok.describe())
		}
	}
	if _, err := p.expect(tkRBrace); err != nil {
		return nil, err
	}
	return sc, nil
}

// parseGridLine parses: { marker* }.
func (p *parser) parseGridLine() (chart.GridLine, error) {
	var line chart.GridLine
	if _, err := p.expect(tkLBrace); err != nil {
		return line, err
	}
	for p.tok.kind != tkRBrace {
		switch {
		case p.tok.keyword("when"):
			if err := p.advance(); err != nil {
				return line, err
			}
			e, err := p.parseGuardExpr()
			if err != nil {
				return line, err
			}
			if line.Cond == nil {
				line.Cond = e
			} else {
				line.Cond = expr.And(line.Cond, e)
			}
			if _, err := p.expect(tkSemi); err != nil {
				return line, err
			}
		case p.tok.kind == tkBang:
			if err := p.advance(); err != nil {
				return line, err
			}
			spec := chart.EventSpec{Negated: true}
			// Optional guard: `! p: e;` or `! (p & q): e;`.
			if p.tok.kind == tkLParen {
				g, err := p.parseGuardUnary()
				if err != nil {
					return line, err
				}
				spec.Guard = g
				if _, err := p.expect(tkColon); err != nil {
					return line, err
				}
			}
			first, err := p.ident()
			if err != nil {
				return line, err
			}
			if spec.Guard == nil && p.tok.kind == tkColon {
				spec.Guard = p.resolveGuardIdent(first)
				if err := p.advance(); err != nil {
					return line, err
				}
				first, err = p.ident()
				if err != nil {
					return line, err
				}
			}
			spec.Event = first
			p.events[spec.Event] = true
			if _, err := p.expect(tkSemi); err != nil {
				return line, err
			}
			line.Events = append(line.Events, spec)
		default:
			spec, err := p.parseMarker()
			if err != nil {
				return line, err
			}
			line.Events = append(line.Events, spec)
		}
	}
	if _, err := p.expect(tkRBrace); err != nil {
		return line, err
	}
	return line, nil
}

// parseMarker parses: [label =] [guard :] event [@ from -> to | @ env] ;
// The guard is either a bare identifier or a parenthesized expression.
func (p *parser) parseMarker() (chart.EventSpec, error) {
	var spec chart.EventSpec
	var err error
	readGuardedEvent := func() error {
		if p.tok.kind == tkLParen {
			g, err := p.parseGuardUnary()
			if err != nil {
				return err
			}
			spec.Guard = g
			if _, err := p.expect(tkColon); err != nil {
				return err
			}
			spec.Event, err = p.ident()
			return err
		}
		first, err := p.ident()
		if err != nil {
			return err
		}
		if p.tok.kind == tkColon {
			// first was a guard atom.
			spec.Guard = p.resolveGuardIdent(first)
			if err := p.advance(); err != nil {
				return err
			}
			spec.Event, err = p.ident()
			return err
		}
		spec.Event = first
		return nil
	}
	// Leading identifier followed by '=' is a label.
	if p.tok.kind == tkIdent {
		name := p.tok.text
		save := p.tok
		if err := p.advance(); err != nil {
			return spec, err
		}
		if p.tok.kind == tkEquals {
			spec.Label = name
			if err := p.advance(); err != nil {
				return spec, err
			}
			if err := readGuardedEvent(); err != nil {
				return spec, err
			}
		} else {
			// Not a label: re-dispatch with the identifier in hand.
			if p.tok.kind == tkColon {
				spec.Guard = p.resolveGuardIdent(name)
				if err := p.advance(); err != nil {
					return spec, err
				}
				spec.Event, err = p.ident()
				if err != nil {
					return spec, err
				}
			} else {
				spec.Event = save.text
			}
		}
	} else {
		if err := readGuardedEvent(); err != nil {
			return spec, err
		}
	}
	p.events[spec.Event] = true
	if p.tok.kind == tkAt {
		if err := p.advance(); err != nil {
			return spec, err
		}
		if p.tok.keyword("env") {
			spec.Env = true
			if err := p.advance(); err != nil {
				return spec, err
			}
		} else {
			spec.From, err = p.ident()
			if err != nil {
				return spec, err
			}
			if _, err := p.expect(tkArrow); err != nil {
				return spec, err
			}
			spec.To, err = p.ident()
			if err != nil {
				return spec, err
			}
		}
	}
	if _, err := p.expect(tkSemi); err != nil {
		return spec, err
	}
	return spec, nil
}

// parseGuardExpr parses a boolean expression over identifiers:
// or-precedence grammar with ! & | and parentheses.
func (p *parser) parseGuardExpr() (expr.Expr, error) {
	left, err := p.parseGuardAnd()
	if err != nil {
		return nil, err
	}
	terms := []expr.Expr{left}
	for p.tok.kind == tkPipe {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseGuardAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	return expr.Or(terms...), nil
}

func (p *parser) parseGuardAnd() (expr.Expr, error) {
	left, err := p.parseGuardUnary()
	if err != nil {
		return nil, err
	}
	terms := []expr.Expr{left}
	for p.tok.kind == tkAmp {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseGuardUnary()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	return expr.And(terms...), nil
}

func (p *parser) parseGuardUnary() (expr.Expr, error) {
	if p.tok.kind == tkBang {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseGuardUnary()
		if err != nil {
			return nil, err
		}
		return expr.Not(x), nil
	}
	switch p.tok.kind {
	case tkLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseGuardExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tkIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch name {
		case "true":
			return expr.True, nil
		case "false":
			return expr.False, nil
		}
		return p.resolveGuardIdent(name), nil
	default:
		return nil, p.errorf("expected a guard expression, found %s", p.tok.describe())
	}
}

// resolveGuardIdent maps a guard identifier to a proposition or event
// reference: declared events stay events, everything else (declared props
// and undeclared names) defaults to a proposition over system variables.
func (p *parser) resolveGuardIdent(name string) expr.Expr {
	if p.events[name] && !p.props[name] {
		return expr.Ev(name)
	}
	return expr.Pr(name)
}
