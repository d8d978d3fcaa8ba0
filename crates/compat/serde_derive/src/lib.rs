//! Offline stand-in for `serde_derive`.
//!
//! The build environment vendors no crates, so this proc-macro crate
//! re-implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! subset of shapes the workspace actually uses, parsing the item token
//! stream by hand (no `syn`/`quote`):
//!
//! * structs with named fields,
//! * one-field tuple structs (newtypes serialize transparently, like real
//!   serde),
//! * enums with unit, tuple and struct variants (externally tagged).
//!
//! Fields serialize in declaration order. Of serde's attributes, exactly
//! these are supported, with real serde's meaning:
//!
//! * container `#[serde(default)]` on a struct with named fields: a
//!   missing key takes its field's value from `Self::default()`;
//! * field `#[serde(default)]`: a missing key reads as the field type's
//!   `Default::default()`;
//! * field `#[serde(skip_serializing_if = "path")]`: the key is omitted
//!   when `path(&self.field)` returns true.
//!
//! Any other `#[serde(...)]` content, a serde attribute on an enum or a
//! tuple struct, and generics are compile errors naming the type: silently
//! ignoring an attribute would change a wire form without notice.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

enum Shape {
    /// Named fields; `true` under a container `#[serde(default)]`.
    Named(Vec<Field>, bool),
    /// One-field tuple struct.
    Newtype,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// A named field, its `#[serde(default)]` and its `skip_serializing_if` path.
struct Field {
    name: String,
    default: bool,
    skip_if: Option<String>,
}

fn expand(input: TokenStream, gen: fn(&str, &Shape) -> String) -> TokenStream {
    let (name, shape) = parse_item(input);
    gen(&name, &shape).parse().expect("serde_derive generated invalid Rust")
}

/// Parses the derive input down to the type name and field/variant shape.
fn parse_item(input: TokenStream) -> (String, Shape) {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut attrs = Vec::new();
    // Collect attributes (`#[...]`), skip visibility (`pub`, `pub(...)`).
    loop {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                attrs.push(tokens[i + 1].clone());
                i += 2; // '#' + bracket group
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected struct/enum, got {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected type name, got {other}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde_derive: generic type `{name}` is not supported by the offline shim");
        }
    }
    let (container_default, _) = serde_attrs(&attrs, &name, &["default"]);
    let shape = match (kind.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::Named(parse_named_fields(g.stream(), &name), container_default)
        }
        _ if container_default => {
            panic!("serde_derive: container `#[serde(default)]` needs named fields (`{name}`)")
        }
        ("struct", Some(TokenTree::Group(g)))
            if g.delimiter() == Delimiter::Parenthesis && count_tuple_fields(g.stream()) == 1 =>
        {
            reject_serde_attrs(g.stream(), &name);
            Shape::Newtype
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            reject_serde_attrs(g.stream(), &name);
            Shape::Enum(parse_variants(g.stream(), &name))
        }
        ("struct" | "enum", other) => {
            panic!("serde_derive: unsupported {kind} body for {name}: {other:?}")
        }
        (other, _) => panic!("serde_derive: cannot derive for `{other}`"),
    };
    (name, shape)
}

/// Rejects any `#[serde(...)]` inside a tuple-struct or enum body.
fn reject_serde_attrs(stream: TokenStream, ty: &str) {
    for t in stream {
        serde_attrs(std::slice::from_ref(&t), ty, &[]);
        if let TokenTree::Group(g) = t {
            reject_serde_attrs(g.stream(), ty);
        }
    }
}

/// The `default` flag and `skip_serializing_if` path set by the
/// `#[serde(...)]` attributes among `attrs` (other attributes, such as doc
/// comments, are skipped). An item not in `allowed` is an error naming `at`.
fn serde_attrs(attrs: &[TokenTree], at: &str, allowed: &[&str]) -> (bool, Option<String>) {
    let (mut default, mut skip_if) = (false, None);
    for attr in attrs {
        let TokenTree::Group(g) = attr else { continue };
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        let [TokenTree::Ident(id), TokenTree::Group(args)] = &inner[..] else { continue };
        if id.to_string() != "serde" {
            continue;
        }
        let tokens: Vec<TokenTree> = args.stream().into_iter().collect();
        for item in tokens.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
            let key =
                item.first().map(ToString::to_string).filter(|k| allowed.contains(&k.as_str()));
            match (key.as_deref(), item) {
                (_, []) => {}
                (Some("default"), [_]) => default = true,
                (Some("skip_serializing_if"), [_, TokenTree::Punct(eq), TokenTree::Literal(p)])
                    if eq.as_char() == '=' =>
                {
                    skip_if = Some(p.to_string().trim_matches('"').to_string())
                }
                _ => {
                    let text: TokenStream = item.iter().cloned().collect();
                    panic!("serde_derive: unsupported attribute `#[serde({text})]` on `{at}`")
                }
            }
        }
    }
    (default, skip_if)
}

/// Parses `ident: Type, ...` out of a brace-group stream with each
/// field's serde attributes, skipping visibility. Type tokens are consumed
/// with angle-bracket depth tracking so generic types containing commas
/// parse correctly.
fn parse_named_fields(stream: TokenStream, ty: &str) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut attrs = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                attrs.push(tokens[i + 1].clone());
                i += 2;
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            TokenTree::Ident(id) => {
                let name = id.to_string();
                let allowed = ["default", "skip_serializing_if"];
                let (default, skip_if) =
                    serde_attrs(&std::mem::take(&mut attrs), &format!("{ty}.{name}"), &allowed);
                fields.push(Field { name, default, skip_if });
                i += 1;
                // Expect ':' then the type; consume until a comma at angle
                // depth zero.
                match &tokens[i] {
                    TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
                    other => panic!("serde_derive: expected `:` after field, got {other}"),
                }
                let mut depth = 0i32;
                while i < tokens.len() {
                    match &tokens[i] {
                        TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                        TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                            i += 1;
                            break;
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            other => panic!("serde_derive: unexpected token in fields: {other}"),
        }
    }
    fields
}

/// Counts the fields of a tuple struct body (`pub u32, pub f64`, ...).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    let mut trailing = true;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                trailing = true;
                continue;
            }
            _ => {}
        }
        trailing = false;
    }
    if trailing {
        count -= 1; // trailing comma
    }
    count
}

fn parse_variants(stream: TokenStream, ty: &str) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Punct(p) if p.as_char() == ',' => i += 1,
            TokenTree::Ident(id) => {
                let name = id.to_string();
                i += 1;
                let shape = match tokens.get(i) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        i += 1;
                        let fields = parse_named_fields(g.stream(), ty);
                        VariantShape::Named(fields.into_iter().map(|f| f.name).collect())
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        i += 1;
                        VariantShape::Tuple(count_tuple_fields(g.stream()))
                    }
                    _ => VariantShape::Unit,
                };
                // Skip an explicit discriminant (`= expr`) if present.
                if let Some(TokenTree::Punct(p)) = tokens.get(i) {
                    if p.as_char() == '=' {
                        while i < tokens.len() {
                            if let TokenTree::Punct(p) = &tokens[i] {
                                if p.as_char() == ',' {
                                    break;
                                }
                            }
                            i += 1;
                        }
                    }
                }
                variants.push(Variant { name, shape });
            }
            other => panic!("serde_derive: unexpected token in enum body: {other}"),
        }
    }
    variants
}

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Named(fields, _) => {
            let mut s = String::from("let mut __m = ::std::vec::Vec::new();\n");
            for Field { name: f, skip_if, .. } in fields {
                let push = format!(
                    "__m.push((::std::string::String::from(\"{f}\"), \
                     ::serde::Serialize::to_value(&self.{f})));\n"
                );
                match skip_if {
                    Some(path) => s.push_str(&format!("if !{path}(&self.{f}) {{ {push} }}\n")),
                    None => s.push_str(&push),
                }
            }
            s.push_str("::serde::Value::Map(__m)");
            s
        }
        Shape::Newtype => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Enum(variants) => {
            let mut s = String::from("match self {\n");
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => s.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::Str(::std::string::String::from(\"{vn}\")),\n"
                    )),
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Seq(vec![{}])", items.join(", "))
                        };
                        s.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::Map(vec![(\
                             ::std::string::String::from(\"{vn}\"), {inner})]),\n",
                            binds.join(", ")
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let binds = fields.join(", ");
                        let items: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{f}\"), \
                                     ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        s.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => ::serde::Value::Map(vec![(\
                             ::std::string::String::from(\"{vn}\"), \
                             ::serde::Value::Map(vec![{}]))]),\n",
                            items.join(", ")
                        ));
                    }
                }
            }
            s.push('}');
            s
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Named(fields, container_default) => {
            let mut s = format!(
                "let __m = __v.as_map().ok_or_else(|| \
                 ::serde::Error::expected(\"map for struct {name}\", __v))?;\n"
            );
            if *container_default {
                s.push_str(&format!("let __d: {name} = ::std::default::Default::default();\n"));
            }
            s.push_str(&format!("::std::result::Result::Ok({name} {{\n"));
            for Field { name: f, default, .. } in fields {
                let missing = if *default {
                    "::std::option::Option::Some(::std::default::Default::default())".to_string()
                } else if *container_default {
                    format!("::std::option::Option::Some(__d.{f})")
                } else {
                    "::serde::Deserialize::from_missing()".to_string()
                };
                s.push_str(&format!("{f}: ::serde::__field_or(__m, \"{f}\", {missing})?,\n"));
            }
            s.push_str("})");
            s
        }
        Shape::Newtype => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Shape::Enum(variants) => {
            // Externally tagged: "Variant" or {"Variant": payload}.
            let mut s = String::from(
                "if let ::std::option::Option::Some(__tag) = __v.as_str() {\n\
                 match __tag {\n",
            );
            for v in variants {
                if matches!(v.shape, VariantShape::Unit) {
                    s.push_str(&format!(
                        "\"{vn}\" => return ::std::result::Result::Ok({name}::{vn}),\n",
                        vn = v.name
                    ));
                }
            }
            s.push_str(&format!(
                "__other => return ::std::result::Result::Err(::serde::Error::new(\
                 &format!(\"unknown variant `{{__other}}` of {name}\"))),\n}}\n}}\n"
            ));
            s.push_str(
                "let __m = __v.as_map().ok_or_else(|| \
                 ::serde::Error::expected(\"string or map for enum\", __v))?;\n\
                 let (__tag, __payload) = match __m.first() {\n\
                 ::std::option::Option::Some((k, p)) if __m.len() == 1 => (k.as_str(), p),\n\
                 _ => return ::std::result::Result::Err(::serde::Error::new(\
                 \"enum map must have exactly one key\")),\n};\n",
            );
            s.push_str("match __tag {\n");
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => s.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n"
                    )),
                    VariantShape::Tuple(1) => s.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(\
                         ::serde::Deserialize::from_value(__payload)?)),\n"
                    )),
                    VariantShape::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::Deserialize::from_value(&__s[{k}])?"))
                            .collect();
                        s.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let __s = __payload.as_seq().ok_or_else(|| \
                             ::serde::Error::expected(\"sequence\", __payload))?;\n\
                             if __s.len() != {n} {{ return ::std::result::Result::Err(\
                             ::serde::Error::new(\"wrong arity\")); }}\n\
                             ::std::result::Result::Ok({name}::{vn}({}))\n}}\n",
                            items.join(", ")
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let items: Vec<String> = fields
                            .iter()
                            .map(|f| format!("{f}: ::serde::__field(__fm, \"{f}\")?"))
                            .collect();
                        s.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let __fm = __payload.as_map().ok_or_else(|| \
                             ::serde::Error::expected(\"map\", __payload))?;\n\
                             ::std::result::Result::Ok({name}::{vn} {{ {} }})\n}}\n",
                            items.join(", ")
                        ));
                    }
                }
            }
            s.push_str(&format!(
                "__other => ::std::result::Result::Err(::serde::Error::new(\
                 &format!(\"unknown variant `{{__other}}` of {name}\"))),\n}}"
            ));
            s
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n}}\n"
    )
}
