// Package statstags enforces the stable-JSON contract on Stats structs.
//
// The Prometheus exporter (pdqhttp/metrics.go derives metric names from
// the tags by reflection) and external dashboards read the counters by
// their JSON names, so those names are API: every
// exported field of a struct named "Stats" (or "...Stats") must carry
// an explicit json tag, the tag must be snake_case (a stable, casing-
// independent name rather than Go's default field-name marshaling), and
// no two fields of one struct may share a tag — encoding/json silently
// drops one of the duplicates, which is how a counter vanishes from a
// scrape without any test noticing.
package statstags

import (
	"go/ast"
	"reflect"
	"regexp"
	"strings"

	"pdq/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "statstags",
	Doc: "exported fields of Stats structs must carry unique, stable, " +
		"snake_case json tags (the Prometheus exporter derives metric names from them)",
	Run: run,
}

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !strings.HasSuffix(ts.Name.Name, "Stats") {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			checkStats(pass, ts.Name.Name, st)
			return true
		})
	}
	return nil, nil
}

func checkStats(pass *analysis.Pass, name string, st *ast.StructType) {
	seen := map[string]string{} // tag -> first field carrying it
	for _, field := range st.Fields.List {
		var names []string
		for _, id := range field.Names {
			if id.IsExported() {
				names = append(names, id.Name)
			}
		}
		if len(field.Names) == 0 {
			// Embedded field: exported iff its type name is.
			if id := embeddedName(field.Type); id != nil && id.IsExported() {
				names = append(names, id.Name)
			}
		}
		if len(names) == 0 {
			continue
		}
		tag := jsonTagName(field)
		for _, fn := range names {
			switch {
			case tag == "":
				pass.Reportf(field.Pos(),
					"exported field %s.%s has no json tag: Stats JSON names are stable API (the Prometheus exporter's metric names)",
					name, fn)
			case tag == "-":
				// Explicitly unserialized: fine.
			case !snakeCase.MatchString(tag):
				pass.Reportf(field.Pos(),
					"field %s.%s has json tag %q: Stats tags must be snake_case",
					name, fn, tag)
			case seen[tag] != "":
				pass.Reportf(field.Pos(),
					"field %s.%s duplicates json tag %q of field %s: encoding/json drops one silently",
					name, fn, tag, seen[tag])
			default:
				seen[tag] = fn
			}
		}
	}
}

// jsonTagName extracts the name part of a field's json tag; "" when the
// field has no tag or no json key.
func jsonTagName(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	raw := strings.Trim(field.Tag.Value, "`")
	tag, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(tag, ','); i >= 0 {
		tag = tag[:i]
	}
	return tag
}

func embeddedName(expr ast.Expr) *ast.Ident {
	switch t := expr.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}
