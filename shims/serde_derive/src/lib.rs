//! Offline shim for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` implemented directly over
//! `proc_macro::TokenStream` (no syn/quote in this environment).
//!
//! Supported input shapes — exactly what this workspace uses:
//! plain (non-generic) structs with named fields, tuple structs, unit
//! structs, and enums whose variants are unit, tuple, or struct-like.
//! Unsupported shapes produce a `compile_error!`.
//!
//! Three `#[serde(...)]` attributes are understood, on named fields of
//! structs and struct variants, with upstream's meaning:
//! `default` (an absent field reads as `Default::default()`),
//! `default = "path"` (… as `path()`) and
//! `skip_serializing_if = "path"` (the field is not written when
//! `path(&field)` holds). A named field of type `Option<T>` absent
//! from the input reads as `None` without any attribute, again as
//! upstream (`serde::Deserialize::from_missing_field`). Anything else
//! inside `serde(...)`, or a `serde` attribute anywhere else, is a
//! `compile_error!` — never silently ignored (the doctests on the
//! re-export in `serde` hold the derive to it).

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

// ---- parsed shape ------------------------------------------------------

struct Input {
    name: String,
    shape: Shape,
}

enum Shape {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// A named field and what its `#[serde(...)]` attributes asked for.
struct Field {
    name: String,
    /// Expression an absent field reads as (`default`, `default = "path"`).
    default: Option<String>,
    /// Predicate path of `skip_serializing_if`.
    skip_if: Option<String>,
}

type Iter = Peekable<proc_macro::token_stream::IntoIter>;

fn error(msg: &str) -> TokenStream {
    format!("::core::compile_error!({msg:?});").parse().unwrap()
}

/// Skips outer attributes (`#[...]`) and visibility (`pub`, `pub(...)`),
/// returning what followed `serde` in each `#[serde(...)]` among them.
fn skip_attrs_and_vis(iter: &mut Iter) -> Vec<TokenStream> {
    let mut serde_attrs = Vec::new();
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                // The bracket group of the attribute.
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    let mut attr = g.stream().into_iter();
                    if matches!(attr.next(), Some(TokenTree::Ident(id)) if id.to_string() == "serde")
                    {
                        serde_attrs.push(attr.collect());
                    }
                    iter.next();
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if matches!(iter.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    iter.next();
                }
            }
            _ => return serde_attrs,
        }
    }
}

/// [`skip_attrs_and_vis`] where the shim understands no `serde` attribute.
fn skip_plain_attrs_and_vis(iter: &mut Iter, place: &str) -> Result<(), String> {
    if skip_attrs_and_vis(iter).is_empty() {
        return Ok(());
    }
    Err(format!(
        "the serde shim derive supports no `#[serde(...)]` on {place}"
    ))
}

/// Reads a named field's `#[serde(...)]` attributes. Each argument
/// list is rendered and split at its commas (a path holds none).
fn parse_field_attrs(name: String, attrs: Vec<TokenStream>) -> Result<Field, String> {
    let (mut default, mut skip_if) = (None, None);
    for attr in attrs {
        let mut attr = attr.into_iter();
        let (Some(TokenTree::Group(list)), None) = (attr.next(), attr.next()) else {
            return Err(format!("expected `#[serde(...)]` on field `{name}`"));
        };
        let list = list.stream().to_string();
        for arg in list.split(',').map(str::trim).filter(|a| !a.is_empty()) {
            let (key, path) = match arg.split_once('=') {
                Some((key, lit)) => (key.trim(), Some(lit.trim().trim_matches('"'))),
                None => (arg, None),
            };
            match (key, path) {
                ("default", None) => default = Some("::std::default::Default::default()".into()),
                ("default", Some(path)) => default = Some(format!("{path}()")),
                ("skip_serializing_if", Some(path)) => skip_if = Some(path.to_owned()),
                _ => {
                    return Err(format!(
                        "unsupported serde attribute `{arg}` on field `{name}`: the shim derive \
                         knows `default`, `default = \"path\"` and `skip_serializing_if = \"path\"`"
                    ))
                }
            }
        }
    }
    Ok(Field {
        name,
        default,
        skip_if,
    })
}

/// Consumes tokens until a comma at angle-bracket depth zero (the end
/// of a field type or enum discriminant). Returns after eating the
/// comma, or at end of stream.
fn skip_to_top_level_comma(iter: &mut Iter) {
    let mut angle_depth = 0i32;
    for tok in iter.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
    }
}

/// Parses `name: Type, ...` field lists (struct bodies and struct-like
/// enum variants), returning the fields in order.
fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut iter: Iter = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = skip_attrs_and_vis(&mut iter);
        match iter.next() {
            None => return Ok(fields),
            Some(TokenTree::Ident(id)) => {
                fields.push(parse_field_attrs(id.to_string(), attrs)?);
                match iter.next() {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                    _ => return Err(format!("expected `:` after field `{id}`")),
                }
                skip_to_top_level_comma(&mut iter);
            }
            Some(other) => return Err(format!("unexpected token in field list: {other}")),
        }
    }
}

/// Counts the fields of a tuple-struct / tuple-variant body.
fn count_tuple_fields(body: TokenStream) -> Result<usize, String> {
    let mut iter: Iter = body.into_iter().peekable();
    let mut count = 0;
    loop {
        skip_plain_attrs_and_vis(&mut iter, "tuple fields")?;
        if iter.peek().is_none() {
            return Ok(count);
        }
        count += 1;
        skip_to_top_level_comma(&mut iter);
    }
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut iter: Iter = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_plain_attrs_and_vis(&mut iter, "variants")?;
        match iter.next() {
            None => return Ok(variants),
            Some(TokenTree::Ident(id)) => {
                let name = id.to_string();
                let kind = match iter.peek() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        let arity = count_tuple_fields(g.stream())?;
                        iter.next();
                        VariantKind::Tuple(arity)
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        let fields = parse_named_fields(g.stream())?;
                        iter.next();
                        VariantKind::Named(fields)
                    }
                    _ => VariantKind::Unit,
                };
                variants.push(Variant { name, kind });
                // Eats an optional `= discriminant` and the trailing comma.
                skip_to_top_level_comma(&mut iter);
            }
            Some(other) => return Err(format!("unexpected token in enum body: {other}")),
        }
    }
}

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let mut iter: Iter = input.into_iter().peekable();
    skip_plain_attrs_and_vis(&mut iter, "containers")?;
    let kind = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };
    if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "generic type `{name}` is not supported by the serde shim derive"
        ));
    }
    match kind.as_str() {
        "struct" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Input {
                name,
                shape: Shape::NamedStruct(parse_named_fields(g.stream())?),
            }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Ok(Input {
                name,
                shape: Shape::TupleStruct(count_tuple_fields(g.stream())?),
            }),
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Input {
                name,
                shape: Shape::UnitStruct,
            }),
            other => Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Input {
                name,
                shape: Shape::Enum(parse_variants(g.stream())?),
            }),
            other => Err(format!("unsupported enum body: {other:?}")),
        },
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

// ---- code generation ---------------------------------------------------

const IMPL_ATTRS: &str =
    "#[automatically_derived]\n#[allow(unused_variables, unused_mut, unreachable_patterns, clippy::all)]\n";

/// `access` turns a field name into a reference to the field: `&self.`
/// in a struct, nothing for the binders of a matched variant.
fn named_fields_to_content(fields: &[Field], access: &str) -> String {
    let pushes: String = fields
        .iter()
        .map(|f| {
            let (name, at) = (&f.name, format!("{access}{}", f.name));
            let push = format!(
                "__map.push((::serde::Content::Str(::std::string::String::from({name:?})), \
                 ::serde::Serialize::to_content({at})));"
            );
            match &f.skip_if {
                Some(skip) => format!("if !{skip}({at}) {{ {push} }}"),
                None => push,
            }
        })
        .collect();
    format!(
        "{{ let mut __map = ::std::vec::Vec::with_capacity({}); {pushes} ::serde::Content::Map(__map) }}",
        fields.len()
    )
}

fn named_fields_from_content(
    type_path: &str,
    fields: &[Field],
    source: &str,
    context: &str,
) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            let name = &f.name;
            let absent = f.default.clone().unwrap_or_else(|| {
                format!("::serde::Deserialize::from_missing_field({name:?}, {context:?})?")
            });
            format!(
                "{name}: match ::serde::Content::field({source}, {name:?}) {{ \
                   ::std::option::Option::Some(v) => ::serde::Deserialize::from_content(v)?, \
                   ::std::option::Option::None => {absent}, \
                 }}"
            )
        })
        .collect();
    format!(
        "::std::result::Result::Ok({type_path} {{ {} }})",
        inits.join(", ")
    )
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::NamedStruct(fields) => named_fields_to_content(fields, "&self."),
        Shape::UnitStruct => "::serde::Content::Null".to_string(),
        Shape::TupleStruct(1) => "::serde::Serialize::to_content(&self.0)".to_string(),
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_content(&self.{i})"))
                .collect();
            format!("::serde::Content::Seq(::std::vec![{}])", items.join(", "))
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vname} => ::serde::Content::Str(\
                             ::std::string::String::from({vname:?})),"
                        ),
                        VariantKind::Tuple(n) => {
                            let binders: Vec<String> =
                                (0..*n).map(|i| format!("f{i}")).collect();
                            let inner = if *n == 1 {
                                "::serde::Serialize::to_content(f0)".to_string()
                            } else {
                                let items: Vec<String> = binders
                                    .iter()
                                    .map(|b| format!("::serde::Serialize::to_content({b})"))
                                    .collect();
                                format!(
                                    "::serde::Content::Seq(::std::vec![{}])",
                                    items.join(", ")
                                )
                            };
                            format!(
                                "{name}::{vname}({}) => ::serde::Content::Map(::std::vec![\
                                 (::serde::Content::Str(::std::string::String::from({vname:?})), {inner})]),",
                                binders.join(", ")
                            )
                        }
                        VariantKind::Named(fields) => {
                            let inner = named_fields_to_content(fields, "");
                            let binders: Vec<&str> =
                                fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vname} {{ {} }} => ::serde::Content::Map(::std::vec![\
                                 (::serde::Content::Str(::std::string::String::from({vname:?})), {inner})]),",
                                binders.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join("\n"))
        }
    };
    format!(
        "{IMPL_ATTRS}impl ::serde::Serialize for {name} {{\n\
           fn to_content(&self) -> ::serde::Content {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::NamedStruct(fields) => named_fields_from_content(name, fields, "content", name),
        Shape::UnitStruct => format!(
            "match content {{ \
               ::serde::Content::Null => ::std::result::Result::Ok({name}), \
               _ => ::std::result::Result::Err(::serde::Error::msg(\
                 \"expected null for unit struct {name}\")), \
             }}"
        ),
        Shape::TupleStruct(1) => format!(
            "::std::result::Result::Ok({name}(::serde::Deserialize::from_content(content)?))"
        ),
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_content(&items[{i}])?"))
                .collect();
            format!(
                "match content {{ \
                   ::serde::Content::Seq(items) if items.len() == {n} => \
                     ::std::result::Result::Ok({name}({})), \
                   _ => ::std::result::Result::Err(::serde::Error::msg(\
                     \"expected {n}-element sequence for {name}\")), \
                 }}",
                items.join(", ")
            )
        }
        Shape::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| {
                    let vname = &v.name;
                    format!("{vname:?} => ::std::result::Result::Ok({name}::{vname}),")
                })
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    let decode = match &v.kind {
                        VariantKind::Unit => return None,
                        VariantKind::Tuple(1) => format!(
                            "::std::result::Result::Ok({name}::{vname}(\
                             ::serde::Deserialize::from_content(value)?))"
                        ),
                        VariantKind::Tuple(n) => {
                            let items: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!("::serde::Deserialize::from_content(&items[{i}])?")
                                })
                                .collect();
                            format!(
                                "match value {{ \
                                   ::serde::Content::Seq(items) if items.len() == {n} => \
                                     ::std::result::Result::Ok({name}::{vname}({})), \
                                   _ => ::std::result::Result::Err(::serde::Error::msg(\
                                     \"expected {n}-element sequence for variant {vname} of {name}\")), \
                                 }}",
                                items.join(", ")
                            )
                        }
                        VariantKind::Named(fields) => named_fields_from_content(
                            &format!("{name}::{vname}"),
                            fields,
                            "value",
                            &format!("{name}::{vname}"),
                        ),
                    };
                    Some(format!("{vname:?} => {{ {decode} }}"))
                })
                .collect();
            format!(
                "match content {{ \
                   ::serde::Content::Str(tag) => match tag.as_str() {{ \
                     {} \
                     other => ::std::result::Result::Err(::serde::Error::msg(\
                       ::std::format!(\"unknown unit variant `{{other}}` of {name}\"))), \
                   }}, \
                   ::serde::Content::Map(entries) if entries.len() == 1 => {{ \
                     let (tag_content, value) = &entries[0]; \
                     let tag = match tag_content {{ \
                       ::serde::Content::Str(s) => s.as_str(), \
                       _ => return ::std::result::Result::Err(::serde::Error::msg(\
                         \"expected string variant tag for {name}\")), \
                     }}; \
                     match tag {{ \
                       {} \
                       other => ::std::result::Result::Err(::serde::Error::msg(\
                         ::std::format!(\"unknown variant `{{other}}` of {name}\"))), \
                     }} \
                   }}, \
                   _ => ::std::result::Result::Err(::serde::Error::msg(\
                     \"expected string or single-entry map for enum {name}\")), \
                 }}",
                unit_arms.join(" "),
                data_arms.join(" ")
            )
        }
    };
    format!(
        "{IMPL_ATTRS}impl ::serde::Deserialize for {name} {{\n\
           fn from_content(content: &::serde::Content) \
             -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         }}"
    )
}

// ---- entry points ------------------------------------------------------

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_input(input) {
        Ok(parsed) => gen_serialize(&parsed)
            .parse()
            .unwrap_or_else(|e| error(&format!("serde shim codegen error: {e}"))),
        Err(e) => error(&e),
    }
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_input(input) {
        Ok(parsed) => gen_deserialize(&parsed)
            .parse()
            .unwrap_or_else(|e| error(&format!("serde shim codegen error: {e}"))),
        Err(e) => error(&e),
    }
}
