package sql

import (
	"strconv"
	"strings"
)

// Parse parses a single SQL statement.
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, errorf(p.cur().Pos, "unexpected %q after statement", p.cur().Text)
	}
	return stmt, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token { return p.toks[p.pos] }

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches kind (and text, when given).
func (p *parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

// eat consumes the current token if it matches.
func (p *parser) eat(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

// expect consumes a required token.
func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.advance(), nil
	}
	want := text
	if want == "" {
		want = [...]string{"EOF", "identifier", "keyword", "number", "string", "symbol", "operator"}[kind]
	}
	return Token{}, errorf(p.cur().Pos, "expected %s, found %q", want, p.cur().Text)
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return "", err
	}
	return t.Text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(TokKeyword, "EXPLAIN"):
		p.advance()
		if !p.at(TokKeyword, "SELECT") && !p.at(TokKeyword, "UPDATE") && !p.at(TokKeyword, "DELETE") {
			return nil, errorf(p.cur().Pos, "EXPLAIN supports SELECT, UPDATE and DELETE statements")
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner}, nil
	case p.at(TokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(TokKeyword, "DROP"):
		return p.parseDrop()
	case p.at(TokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(TokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(TokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(TokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(TokKeyword, "BEGIN"):
		p.advance()
		p.eatTxNoise()
		return &BeginTx{}, nil
	case p.at(TokKeyword, "COMMIT"):
		p.advance()
		p.eatTxNoise()
		return &CommitTx{}, nil
	case p.at(TokKeyword, "ROLLBACK"):
		p.advance()
		p.eatTxNoise()
		return &RollbackTx{}, nil
	default:
		return nil, errorf(p.cur().Pos, "expected a statement, found %q", p.cur().Text)
	}
}

// eatTxNoise consumes the optional TRANSACTION/WORK keyword after
// BEGIN/COMMIT/ROLLBACK.
func (p *parser) eatTxNoise() {
	if !p.eat(TokKeyword, "TRANSACTION") {
		p.eat(TokKeyword, "WORK")
	}
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	public := p.eat(TokKeyword, "PUBLIC")
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, err
		}
		def := ColumnDef{Name: colName}
		typeTok := p.cur()
		switch {
		case p.eat(TokKeyword, "INT"):
			def.Type = TypeInt
		case p.eat(TokKeyword, "DECIMAL"):
			def.Type = TypeDecimal
			arg, err := p.parenInt()
			if err != nil {
				return nil, err
			}
			def.Arg = arg
		case p.eat(TokKeyword, "VARCHAR"):
			def.Type = TypeVarchar
			arg, err := p.parenInt()
			if err != nil {
				return nil, err
			}
			def.Arg = arg
		case p.eat(TokKeyword, "BLOB"):
			def.Type = TypeBlob
		default:
			return nil, errorf(typeTok.Pos, "expected a column type, found %q", typeTok.Text)
		}
		cols = append(cols, def)
		if p.eat(TokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Public: public, Columns: cols}, nil
}

// parenInt parses "( number )" returning the integer.
func (p *parser) parenInt() (int, error) {
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return 0, err
	}
	t, err := p.expect(TokNumber, "")
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, errorf(t.Pos, "expected an integer, found %q", t.Text)
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return 0, err
	}
	return v, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Literal
	for {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Literal
		for {
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if p.eat(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.eat(TokSymbol, ",") {
			continue
		}
		break
	}
	return &Insert{Table: table, Rows: rows}, nil
}

// literal parses a string or (possibly signed) numeric literal.
func (p *parser) literal() (Literal, error) {
	t := p.cur()
	switch {
	case t.Kind == TokString:
		p.advance()
		return Literal{IsString: true, Text: t.Text}, nil
	case t.Kind == TokNumber:
		p.advance()
		return Literal{Text: t.Text}, nil
	case t.Kind == TokSymbol && (t.Text == "-" || t.Text == "+"):
		p.advance()
		num, err := p.expect(TokNumber, "")
		if err != nil {
			return Literal{}, err
		}
		text := num.Text
		if t.Text == "-" {
			text = "-" + text
		}
		return Literal{Text: text}, nil
	default:
		return Literal{}, errorf(t.Pos, "expected a literal, found %q", t.Text)
	}
}

// columnRef parses ident or table.ident.
func (p *parser) columnRef() (ColumnRef, error) {
	first, err := p.ident()
	if err != nil {
		return ColumnRef{}, err
	}
	if p.eat(TokSymbol, ".") {
		second, err := p.ident()
		if err != nil {
			return ColumnRef{}, err
		}
		return ColumnRef{Table: first, Name: second}, nil
	}
	return ColumnRef{Name: first}, nil
}

func (p *parser) parseSelect() (Statement, error) {
	p.advance() // SELECT
	sel := &Select{}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.eat(TokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.Table = table
	if p.eat(TokKeyword, "JOIN") {
		jt, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		left, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		right, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		sel.Join = &JoinClause{Table: jt, Left: left, Right: right}
	}
	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	sel.Where = where
	if p.eat(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		sel.GroupBy = &col
		if p.eat(TokKeyword, "HAVING") {
			for {
				hp, err := p.havingPredicate()
				if err != nil {
					return nil, err
				}
				sel.Having = append(sel.Having, hp)
				if p.eat(TokKeyword, "AND") {
					continue
				}
				break
			}
		}
	}
	if p.eat(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		oc := &OrderClause{Col: col}
		if p.eat(TokKeyword, "DESC") {
			oc.Desc = true
		} else {
			p.eat(TokKeyword, "ASC")
		}
		sel.OrderBy = oc
	}
	if p.eat(TokKeyword, "LIMIT") {
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseUint(t.Text, 10, 64)
		switch {
		case err != nil:
			return nil, errorf(t.Pos, "bad LIMIT %q", t.Text)
		case n == 0:
			return nil, errorf(t.Pos, "LIMIT 0 selects no row; leave the LIMIT out to select every row")
		}
		sel.Limit = n
	}
	if p.eat(TokKeyword, "VERIFIED") {
		sel.Verified = true
	}
	return sel, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	t := p.cur()
	if p.eat(TokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	aggs := map[string]AggFunc{
		"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg,
		"MIN": AggMin, "MAX": AggMax, "MEDIAN": AggMedian,
	}
	if t.Kind == TokKeyword {
		if fn, ok := aggs[t.Text]; ok {
			p.advance()
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return SelectItem{}, err
			}
			item := SelectItem{Agg: fn}
			if p.eat(TokSymbol, "*") {
				if fn != AggCount {
					return SelectItem{}, errorf(t.Pos, "%s(*) is only valid for COUNT", fn)
				}
				item.Star = true
			} else {
				col, err := p.columnRef()
				if err != nil {
					return SelectItem{}, err
				}
				item.Col = col
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return SelectItem{}, err
			}
			return item, nil
		}
		return SelectItem{}, errorf(t.Pos, "unexpected keyword %q in select list", t.Text)
	}
	col, err := p.columnRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: col}, nil
}

func (p *parser) parseWhere() ([]Predicate, error) {
	if !p.eat(TokKeyword, "WHERE") {
		return nil, nil
	}
	var preds []Predicate
	for {
		pred, err := p.predicate()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred)
		if p.eat(TokKeyword, "AND") {
			continue
		}
		break
	}
	return preds, nil
}

func (p *parser) predicate() (Predicate, error) {
	col, err := p.columnRef()
	if err != nil {
		return Predicate{}, err
	}
	t := p.cur()
	switch {
	case t.Kind == TokOp:
		p.advance()
		var op CompareOp
		switch t.Text {
		case "=":
			op = OpEq
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		default:
			return Predicate{}, errorf(t.Pos, "unsupported operator %q", t.Text)
		}
		lit, err := p.literal()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Col: col, Op: op, Lo: lit}, nil
	case t.Kind == TokKeyword && t.Text == "BETWEEN":
		p.advance()
		lo, err := p.literal()
		if err != nil {
			return Predicate{}, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return Predicate{}, err
		}
		hi, err := p.literal()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Col: col, Op: OpBetween, Lo: lo, Hi: hi}, nil
	case t.Kind == TokKeyword && t.Text == "IN":
		p.advance()
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return Predicate{}, err
		}
		var list []Literal
		for {
			lit, err := p.literal()
			if err != nil {
				return Predicate{}, err
			}
			list = append(list, lit)
			if p.eat(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return Predicate{}, err
		}
		return Predicate{Col: col, Op: OpIn, List: list}, nil
	case t.Kind == TokKeyword && t.Text == "LIKE":
		p.advance()
		lit, err := p.literal()
		if err != nil {
			return Predicate{}, err
		}
		if !lit.IsString {
			return Predicate{}, errorf(t.Pos, "LIKE needs a string pattern")
		}
		if !strings.HasSuffix(lit.Text, "%") || strings.Contains(strings.TrimSuffix(lit.Text, "%"), "%") {
			return Predicate{}, errorf(t.Pos, "only prefix patterns ('AB%%') are supported")
		}
		lit.Text = strings.TrimSuffix(lit.Text, "%")
		return Predicate{Col: col, Op: OpLikePrefix, Lo: lit}, nil
	default:
		return Predicate{}, errorf(t.Pos, "expected a comparison, found %q", t.Text)
	}
}

// havingPredicate parses one HAVING conjunct: agg(col) OP literal, or
// agg(col) BETWEEN lo AND hi.
func (p *parser) havingPredicate() (HavingPredicate, error) {
	start := p.cur()
	item, err := p.selectItem()
	if err != nil {
		return HavingPredicate{}, err
	}
	if item.Agg == AggNone {
		return HavingPredicate{}, errorf(start.Pos, "HAVING requires an aggregate, found %q", start.Text)
	}
	t := p.cur()
	switch {
	case t.Kind == TokOp:
		p.advance()
		var op CompareOp
		switch t.Text {
		case "=":
			op = OpEq
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		default:
			return HavingPredicate{}, errorf(t.Pos, "unsupported operator %q in HAVING", t.Text)
		}
		lit, err := p.literal()
		if err != nil {
			return HavingPredicate{}, err
		}
		return HavingPredicate{Item: item, Op: op, Lo: lit}, nil
	case t.Kind == TokKeyword && t.Text == "BETWEEN":
		p.advance()
		lo, err := p.literal()
		if err != nil {
			return HavingPredicate{}, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return HavingPredicate{}, err
		}
		hi, err := p.literal()
		if err != nil {
			return HavingPredicate{}, err
		}
		return HavingPredicate{Item: item, Op: OpBetween, Lo: lo, Hi: hi}, nil
	default:
		return HavingPredicate{}, errorf(t.Pos, "expected a comparison in HAVING, found %q", t.Text)
	}
}

func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	var assigns []Assignment
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, Assignment{Col: col, Value: lit})
		if p.eat(TokSymbol, ",") {
			continue
		}
		break
	}
	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	return &Update{Table: table, Set: assigns, Where: where}, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	return &Delete{Table: table, Where: where}, nil
}
