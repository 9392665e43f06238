//! Derive macros for the offline `serde` stand-in.
//!
//! Supports exactly the item shapes present in this workspace:
//!
//! * `#[serde(transparent)]` single-field tuple structs (newtypes),
//! * named-field structs, whose fields may carry
//!   `#[serde(skip_serializing_if = "pred", default)]` — the field is
//!   omitted from the JSON when `pred(&value)` is true and filled with
//!   `Default::default()` when missing on the wire (this is how report
//!   types grow fields without perturbing historical golden encodings),
//! * enums whose variants are unit, single-field tuple, or named-field
//!   struct variants (externally tagged, matching real serde's default).
//!
//! Field keys and enum tags are read with `Parser::parse_str` and matched
//! as borrowed `&str`, so a derived decoder allocates only for the values
//! it builds (`Vec`s, `String`s), never for a key or a tag.
//!
//! Generics are not supported; the workspace's serializable types are all
//! concrete. Parsing is hand-rolled over `proc_macro::TokenTree` so no
//! external dependencies (`syn`/`quote`) are needed.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    ty: String,
    /// `skip_serializing_if` predicate path, if any.
    skip_if: Option<String>,
    /// Whether a missing field deserializes to `Default::default()`.
    default: bool,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(String),
    Struct(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum Item {
    Newtype {
        name: String,
        inner: String,
    },
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives JSON serialization (see the crate docs for supported shapes).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives JSON deserialization (see the crate docs for supported shapes).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut transparent = false;

    // leading attributes (doc comments, #[serde(...)], #[non_exhaustive], …)
    while is_punct(tokens.get(i), '#') {
        if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
            let inner = g.stream().to_string();
            if inner.starts_with("serde") && inner.contains("transparent") {
                transparent = true;
            }
        }
        i += 2;
    }
    // visibility
    if is_ident(tokens.get(i), "pub") {
        i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(i) {
            if g.delimiter() == Delimiter::Parenthesis {
                i += 1;
            }
        }
    }

    if is_ident(tokens.get(i), "struct") {
        let name = ident_text(&tokens[i + 1]);
        match tokens.get(i + 2) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner_types = split_tuple_types(g.stream());
                assert!(
                    transparent && inner_types.len() == 1,
                    "serde_derive stand-in supports tuple structs only as \
                     #[serde(transparent)] newtypes ({name})"
                );
                Item::Newtype {
                    name,
                    inner: inner_types.into_iter().next().expect("one field"),
                }
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Struct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            other => panic!("unsupported struct body for {name}: {other:?}"),
        }
    } else if is_ident(tokens.get(i), "enum") {
        let name = ident_text(&tokens[i + 1]);
        let Some(TokenTree::Group(g)) = tokens.get(i + 2) else {
            panic!("missing enum body for {name}");
        };
        Item::Enum {
            name,
            variants: parse_variants(g.stream()),
        }
    } else {
        panic!("serde_derive stand-in supports only structs and enums");
    }
}

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn is_ident(t: Option<&TokenTree>, s: &str) -> bool {
    matches!(t, Some(TokenTree::Ident(id)) if id.to_string() == s)
}

fn ident_text(t: &TokenTree) -> String {
    match t {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected identifier, found {other}"),
    }
}

/// Splits `a, b, c` in a tuple-struct body into type strings, honouring
/// nested groups and angle brackets.
fn split_tuple_types(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut out = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    let mut angle = 0i32;
    let mut i = 0;
    while i < tokens.len() {
        // strip per-field attributes and visibility
        if current.is_empty() && is_punct(tokens.get(i), '#') {
            i += 2;
            continue;
        }
        if current.is_empty() && is_ident(tokens.get(i), "pub") {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
            continue;
        }
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                out.push(tokens_to_string(&current));
                current.clear();
                i += 1;
                continue;
            }
            _ => {}
        }
        current.push(tokens[i].clone());
        i += 1;
    }
    if !current.is_empty() {
        out.push(tokens_to_string(&current));
    }
    out
}

fn tokens_to_string(tokens: &[TokenTree]) -> String {
    let stream: TokenStream = tokens.iter().cloned().collect();
    stream.to_string()
}

/// Extracts `(skip_serializing_if, default)` from one `#[serde(…)]`
/// attribute group's inner stream (`serde (…)`), if it is one.
fn parse_serde_attr(stream: TokenStream) -> (Option<String>, bool) {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if !is_ident(tokens.first(), "serde") {
        return (None, false);
    }
    let Some(TokenTree::Group(args)) = tokens.get(1) else {
        return (None, false);
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut skip_if = None;
    let mut default = false;
    let mut i = 0;
    while i < args.len() {
        if is_ident(args.get(i), "default") {
            default = true;
        } else if is_ident(args.get(i), "skip_serializing_if") && is_punct(args.get(i + 1), '=') {
            if let Some(TokenTree::Literal(lit)) = args.get(i + 2) {
                let text = lit.to_string();
                skip_if = Some(text.trim_matches('"').to_string());
                i += 2;
            }
        }
        i += 1;
    }
    (skip_if, default)
}

/// Parses `name: Type, …` (with optional attributes/visibility per field).
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut skip_if = None;
        let mut default = false;
        while is_punct(tokens.get(i), '#') {
            if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                let (s, d) = parse_serde_attr(g.stream());
                if s.is_some() {
                    skip_if = s;
                }
                default |= d;
            }
            i += 2;
        }
        if is_ident(tokens.get(i), "pub") {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
        let Some(tok) = tokens.get(i) else { break };
        let field = ident_text(tok);
        i += 1;
        assert!(
            is_punct(tokens.get(i), ':'),
            "expected ':' after field {field}"
        );
        i += 1;
        let mut ty: Vec<TokenTree> = Vec::new();
        let mut angle = 0i32;
        while let Some(t) = tokens.get(i) {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            ty.push(t.clone());
            i += 1;
        }
        out.push(Field {
            name: field,
            ty: tokens_to_string(&ty),
            skip_if,
            default,
        });
    }
    out
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while is_punct(tokens.get(i), '#') {
            i += 2;
        }
        let Some(tok) = tokens.get(i) else { break };
        let name = ident_text(tok);
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let tys = split_tuple_types(g.stream());
                assert!(
                    tys.len() == 1,
                    "serde_derive stand-in supports exactly one field per tuple variant ({name})"
                );
                i += 1;
                VariantKind::Tuple(tys.into_iter().next().expect("one field"))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                i += 1;
                VariantKind::Struct(fields)
            }
            _ => VariantKind::Unit,
        };
        // optional discriminant is unsupported; skip trailing comma
        if is_punct(tokens.get(i), ',') {
            i += 1;
        }
        out.push(Variant { name, kind });
    }
    out
}

// ------------------------------------------------------------- generation

fn gen_serialize(item: &Item) -> String {
    let mut body = String::new();
    let name = match item {
        Item::Newtype { name, .. } => {
            body.push_str("::serde::Serialize::serialize_json(&self.0, out);");
            name
        }
        Item::Struct { name, fields } => {
            if fields.iter().any(|f| f.skip_if.is_some()) {
                // dynamic comma placement: skippable fields may not emit
                body.push_str("out.push('{'); let mut __first = true;");
                for f in fields {
                    let field = &f.name;
                    let emit = format!(
                        "if !__first {{ out.push(','); }} __first = false;\
                         out.push_str(\"\\\"{field}\\\":\");\
                         ::serde::Serialize::serialize_json(&self.{field}, out);"
                    );
                    match &f.skip_if {
                        Some(pred) => {
                            body.push_str(&format!("if !({pred}(&self.{field})) {{ {emit} }}"))
                        }
                        None => body.push_str(&emit),
                    }
                }
                body.push_str("out.push('}');");
            } else {
                body.push_str("out.push('{');");
                for (i, f) in fields.iter().enumerate() {
                    let field = &f.name;
                    if i > 0 {
                        body.push_str("out.push(',');");
                    }
                    body.push_str(&format!(
                        "out.push_str(\"\\\"{field}\\\":\");\
                         ::serde::Serialize::serialize_json(&self.{field}, out);"
                    ));
                }
                body.push_str("out.push('}');");
            }
            name
        }
        Item::Enum { name, variants } => {
            body.push_str("match self {");
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        body.push_str(&format!("{name}::{vn} => out.push_str(\"\\\"{vn}\\\"\"),"))
                    }
                    VariantKind::Tuple(_) => body.push_str(&format!(
                        "{name}::{vn}(v0) => {{\
                             out.push_str(\"{{\\\"{vn}\\\":\");\
                             ::serde::Serialize::serialize_json(v0, out);\
                             out.push('}}');\
                         }},"
                    )),
                    VariantKind::Struct(fields) => {
                        assert!(
                            fields.iter().all(|f| f.skip_if.is_none()),
                            "skip_serializing_if is unsupported on enum variant fields ({name}::{vn})"
                        );
                        let pattern = fields
                            .iter()
                            .map(|f| f.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", ");
                        let mut inner = format!("out.push_str(\"{{\\\"{vn}\\\":{{\");");
                        for (i, field) in fields.iter().enumerate() {
                            let f = &field.name;
                            if i > 0 {
                                inner.push_str("out.push(',');");
                            }
                            inner.push_str(&format!(
                                "out.push_str(\"\\\"{f}\\\":\");\
                                 ::serde::Serialize::serialize_json({f}, out);"
                            ));
                        }
                        inner.push_str("out.push_str(\"}}\");");
                        body.push_str(&format!("{name}::{vn} {{ {pattern} }} => {{ {inner} }},"));
                    }
                }
            }
            body.push('}');
            name
        }
    };
    format!(
        "#[automatically_derived] #[allow(unreachable_code, unused_mut, clippy::all)] impl ::serde::Serialize for {name} {{\
             fn serialize_json(&self, out: &mut ::std::string::String) {{ {body} }}\
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Newtype { name, inner } => (
            name,
            format!("Ok({name}(<{inner} as ::serde::Deserialize>::deserialize_json(p)?))"),
        ),
        Item::Struct { name, fields } => {
            let body = gen_struct_body(name, "", fields);
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("\"{vn}\" => Ok({name}::{vn}),"))
                    }
                    VariantKind::Tuple(ty) => data_arms.push_str(&format!(
                        "\"{vn}\" => {name}::{vn}(\
                             <{ty} as ::serde::Deserialize>::deserialize_json(p)?\
                         ),"
                    )),
                    VariantKind::Struct(fields) => {
                        let inner = gen_struct_body(name, &format!("::{vn}"), fields);
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{ let __r: ::core::result::Result<{name}, ::serde::de::DeError> = \
                                 (|| {{ {inner} }})(); __r? }},"
                        ));
                    }
                }
            }
            let body = format!(
                "if p.peek() == ::core::option::Option::Some(b'\"') {{\
                     let tag = p.parse_str()?;\
                     match &*tag {{\
                         {unit_arms}\
                         other => Err(::serde::de::DeError::msg(format!(\
                             \"unknown variant {{other}} of {name}\"))),\
                     }}\
                 }} else {{\
                     p.expect_char('{{')?;\
                     let tag = p.parse_str()?;\
                     p.expect_char(':')?;\
                     let value = match &*tag {{\
                         {data_arms}\
                         other => return Err(::serde::de::DeError::msg(format!(\
                             \"unknown variant {{other}} of {name}\"))),\
                     }};\
                     p.expect_char('}}')?;\
                     Ok(value)\
                 }}"
            );
            (name, body)
        }
    };
    format!(
        "#[automatically_derived] #[allow(unreachable_code, unused_mut, clippy::all)] impl ::serde::Deserialize for {name} {{\
             fn deserialize_json(p: &mut ::serde::de::Parser<'_>) \
                 -> ::core::result::Result<Self, ::serde::de::DeError> {{ {body} }}\
         }}"
    )
}

/// Generates the `{ "field": value, … }` reader producing
/// `Ok(Name<suffix> { field, … })`.
fn gen_struct_body(name: &str, suffix: &str, fields: &[Field]) -> String {
    let mut decls = String::new();
    let mut arms = String::new();
    let mut build = String::new();
    for field in fields {
        let (f, ty) = (&field.name, &field.ty);
        decls.push_str(&format!(
            "let mut __f_{f}: ::core::option::Option<{ty}> = ::core::option::Option::None;"
        ));
        arms.push_str(&format!(
            "\"{f}\" => __f_{f} = ::core::option::Option::Some(<{ty} as ::serde::Deserialize>::deserialize_json(p)?),"
        ));
        if field.default {
            build.push_str(&format!("{f}: __f_{f}.unwrap_or_default(),"));
        } else {
            build.push_str(&format!(
                "{f}: __f_{f}.ok_or_else(|| ::serde::de::DeError::missing(\"{f}\"))?,"
            ));
        }
    }
    format!(
        "p.expect_char('{{')?;\
         {decls}\
         if !p.consume_char('}}') {{\
             loop {{\
                 let __key = p.parse_str()?;\
                 p.expect_char(':')?;\
                 match &*__key {{\
                     {arms}\
                     _ => p.skip_value()?,\
                 }}\
                 if p.consume_char(',') {{ continue; }}\
                 p.expect_char('}}')?;\
                 break;\
             }}\
         }}\
         Ok({name}{suffix} {{ {build} }})"
    )
}
