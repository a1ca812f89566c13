package gmdj

import (
	"context"
	"fmt"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/sql"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// Exec executes one SQL statement: SELECT queries return a Result;
// CREATE TABLE, INSERT INTO ... VALUES, and DROP TABLE return a nil
// Result on success. Queries run under the GMDJOpt strategy; use
// ExecStrategy to pick another.
func (db *DB) Exec(stmt string) (*Result, error) {
	return db.ExecStrategy(stmt, GMDJOpt)
}

// ExecContext is Exec honoring the caller's context for SELECT
// evaluation. DDL and INSERT are not governed: they are O(statement)
// catalog mutations, not query evaluations.
func (db *DB) ExecContext(ctx context.Context, stmt string) (*Result, error) {
	return db.ExecStrategyContext(ctx, stmt, GMDJOpt)
}

// ExecStrategy is Exec with an explicit query strategy.
func (db *DB) ExecStrategy(stmt string, s Strategy) (*Result, error) {
	return db.ExecStrategyContext(context.Background(), stmt, s)
}

// ExecStrategyContext is ExecStrategy honoring the caller's context.
func (db *DB) ExecStrategyContext(ctx context.Context, stmt string, s Strategy) (*Result, error) {
	parsed, err := sql.ParseStatement(stmt)
	if err != nil {
		return nil, err
	}
	switch st := parsed.(type) {
	case *sql.SelectStmt:
		return db.QueryStrategyContext(ctx, stmt, s)
	case *sql.CreateTableStmt:
		if _, err := db.cat.Table(st.Name); err == nil {
			return nil, fmt.Errorf("gmdj: %w: %q", ErrTableExists, st.Name)
		}
		db.cat.Register(storage.NewTable(st.Name, relation.New(relation.NewSchema(st.Cols...))))
		return nil, nil
	case *sql.InsertStmt:
		t, err := db.cat.Table(st.Table)
		if err != nil {
			return nil, err
		}
		schema := t.Rel.Schema
		// Validate every row before mutating, so a failed INSERT is
		// atomic.
		checked := make([]relation.Tuple, 0, len(st.Rows))
		for ri, row := range st.Rows {
			if len(row) != schema.Len() {
				return nil, fmt.Errorf("gmdj: INSERT row %d has %d values, table %q has %d columns",
					ri+1, len(row), st.Table, schema.Len())
			}
			out := make(relation.Tuple, len(row))
			for i, v := range row {
				cv, err := coerce(v, schema.Columns[i].Type)
				if err != nil {
					return nil, fmt.Errorf("gmdj: INSERT row %d column %q: %w", ri+1, schema.Columns[i].Name, err)
				}
				out[i] = cv
			}
			checked = append(checked, out)
		}
		t.Append(checked...)
		return nil, nil
	case *sql.DropTableStmt:
		if _, err := db.cat.Table(st.Name); err != nil {
			return nil, err
		}
		db.cat.Drop(st.Name)
		return nil, nil
	default:
		return nil, fmt.Errorf("gmdj: unsupported statement %T", parsed)
	}
}

// coerce checks a literal against a column type, widening INT to FLOAT.
func coerce(v value.Value, want value.Kind) (value.Value, error) {
	if v.IsNull() || want == value.KindNull || v.Kind() == want {
		return v, nil
	}
	if want == value.KindFloat && v.Kind() == value.KindInt {
		return value.Float(float64(v.AsInt())), nil
	}
	return value.Null, fmt.Errorf("cannot store %v into %v", v.Kind(), want)
}
