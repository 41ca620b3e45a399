//! Offline shim for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` implemented directly over
//! `proc_macro::TokenStream` (no syn/quote in this environment). Both
//! generate the streaming methods: `serialize` writes the value into a
//! `serde::Serializer`, and `deserialize` reads it from a pull
//! `serde::Deserializer`, matching each struct field's key as it
//! arrives (the first occurrence wins; repeated and unknown keys are
//! skipped as values).
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
    /// The field's type, as written.
    ty: String,
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
fn parse_field_attrs(name: String, ty: String, attrs: Vec<TokenStream>) -> Result<Field, String> {
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
        ty,
        default,
        skip_if,
    })
}

/// Consumes tokens until a comma at angle-bracket depth zero (the end
/// of a field type or enum discriminant) and returns them. Returns
/// after eating the comma, or at end of stream.
fn skip_to_top_level_comma(iter: &mut Iter) -> TokenStream {
    let mut angle_depth = 0i32;
    let mut taken = Vec::new();
    for tok in iter.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => break,
                _ => {}
            }
        }
        taken.push(tok);
    }
    taken.into_iter().collect()
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
                match iter.next() {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                    _ => return Err(format!("expected `:` after field `{id}`")),
                }
                let ty = skip_to_top_level_comma(&mut iter).to_string();
                fields.push(parse_field_attrs(id.to_string(), ty, attrs)?);
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

const OK: &str = "::std::result::Result::Ok";
const SOME: &str = "::std::option::Option::Some";
const NONE: &str = "::std::option::Option::None";

/// `return Err(msg)` with a literal message.
fn fail(msg: &str) -> String {
    format!("return ::std::result::Result::Err(::serde::Error::msg({msg:?}))")
}

/// Writes named fields as a map. `access` turns a field name into a
/// reference to the field: `&self.` in a struct, nothing for the
/// binders of a matched variant.
fn write_named_fields(fields: &[Field], access: &str) -> String {
    let entries: String = fields
        .iter()
        .map(|f| {
            let (name, at) = (&f.name, format!("{access}{}", f.name));
            let entry = format!("__s.field({name:?})?; ::serde::Serialize::serialize({at}, __s)?;");
            match &f.skip_if {
                Some(skip) => format!("if !{skip}({at}) {{ {entry} }}"),
                None => entry,
            }
        })
        .collect();
    format!(
        "__s.begin_map({})?; {entries} __s.end_map()?;",
        fields.len()
    )
}

/// Writes `items` (expressions yielding references) as a sequence.
fn write_seq(items: &[String]) -> String {
    let elements: String = items
        .iter()
        .map(|item| format!("__s.element()?; ::serde::Serialize::serialize({item}, __s)?;"))
        .collect();
    format!(
        "__s.begin_seq({})?; {elements} __s.end_seq()?;",
        items.len()
    )
}

/// Writes `{tag: <inner>}`, an externally tagged variant.
fn write_tagged(tag: &str, inner: &str) -> String {
    format!("__s.begin_map(1)?; __s.field({tag:?})?; {inner} __s.end_map()?;")
}

/// Reads named fields from a map, as they arrive: the first occurrence
/// of a field wins, and repeated and unknown keys are skipped as
/// values. A value that is not a map is skipped and every field is
/// absent — what looking each field up in a tree that is not a map
/// finds.
fn read_named_fields(type_path: &str, fields: &[Field], context: &str) -> String {
    let slots: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("let mut __f{i}: ::std::option::Option<{}> = {NONE};", f.ty))
        .collect();
    let keys: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("{SOME}({:?}) => {i}usize,", f.name))
        .collect();
    let reads: String = (0..fields.len())
        .map(|i| {
            format!(
                "{i} if __f{i}.is_none() => \
                 __f{i} = {SOME}(::serde::Deserialize::deserialize(__d)?),"
            )
        })
        .collect();
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let name = &f.name;
            let absent = f.default.clone().unwrap_or_else(|| {
                format!("::serde::Deserialize::from_missing_field({name:?}, {context:?})?")
            });
            format!("{name}: match __f{i} {{ {SOME}(v) => v, {NONE} => {absent}, }}")
        })
        .collect();
    format!(
        "{slots} \
         if __d.begin_map()? {{ \
           while __d.next_key()? {{ \
             let __at = match __d.str_key()? {{ {keys} _ => usize::MAX, }}; \
             match __at {{ {reads} _ => __d.skip()?, }} \
           }} \
         }} else {{ __d.skip()?; }} \
         {OK}({type_path} {{ {} }})",
        inits.join(", ")
    )
}

/// Reads exactly `n` elements of a sequence into `__e0..`, then builds
/// `ctor(__e0, ..)`.
fn read_seq(ctor: &str, n: usize, what: &str) -> String {
    let wrong = fail(&format!("expected {n}-element sequence for {what}"));
    let elements: String = (0..n)
        .map(|i| {
            format!(
                "let __e{i} = if __d.next_element()? {{ \
                 ::serde::Deserialize::deserialize(__d)? }} else {{ {wrong} }};"
            )
        })
        .collect();
    let binders: Vec<String> = (0..n).map(|i| format!("__e{i}")).collect();
    format!(
        "if !__d.begin_seq()? {{ {wrong} }} {elements} \
         if __d.next_element()? {{ {wrong} }} \
         {OK}({ctor}({}))",
        binders.join(", ")
    )
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::NamedStruct(fields) => write_named_fields(fields, "&self."),
        Shape::UnitStruct => "__s.null()?;".to_string(),
        Shape::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __s)?;".to_string(),
        Shape::TupleStruct(n) => {
            write_seq(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>())
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => {
                            format!("{name}::{vname} => {{ __s.str({vname:?})?; }}")
                        }
                        VariantKind::Tuple(n) => {
                            let binders: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let inner = if *n == 1 {
                                "::serde::Serialize::serialize(f0, __s)?;".to_string()
                            } else {
                                write_seq(&binders)
                            };
                            format!(
                                "{name}::{vname}({}) => {{ {} }}",
                                binders.join(", "),
                                write_tagged(vname, &inner)
                            )
                        }
                        VariantKind::Named(fields) => {
                            let binders: Vec<&str> =
                                fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vname} {{ {} }} => {{ {} }}",
                                binders.join(", "),
                                write_tagged(vname, &write_named_fields(fields, ""))
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
           fn serialize<__S: ::serde::Serializer + ?::std::marker::Sized>(&self, __s: &mut __S) \
             -> ::std::result::Result<(), ::serde::Error> {{ {body} {OK}(()) }}\n\
         }}"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::NamedStruct(fields) => read_named_fields(name, fields, name),
        Shape::UnitStruct => format!(
            "match __d.scalar()? {{ \
               ::serde::Scalar::Null => {OK}({name}), \
               _ => {{ {} }} \
             }}",
            fail(&format!("expected null for unit struct {name}"))
        ),
        Shape::TupleStruct(1) => format!("{OK}({name}(::serde::Deserialize::deserialize(__d)?))"),
        Shape::TupleStruct(n) => read_seq(name, *n, name),
        Shape::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| format!("{:?} => {OK}({name}::{}),", v.name, v.name))
                .collect();
            let data_arms: String = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    let path = format!("{name}::{vname}");
                    let read = match &v.kind {
                        VariantKind::Unit => return None,
                        VariantKind::Tuple(1) => {
                            format!("{OK}({path}(::serde::Deserialize::deserialize(__d)?))")
                        }
                        VariantKind::Tuple(n) => {
                            read_seq(&path, *n, &format!("variant {vname} of {name}"))
                        }
                        VariantKind::Named(fields) => read_named_fields(&path, fields, &path),
                    };
                    // An arm's early returns are the function's; its
                    // tail is its `Ok`.
                    Some(format!("{SOME}({vname:?}) => ({{ {read} }})?,"))
                })
                .collect();
            let not_enum = fail(&format!(
                "expected string or single-entry map for enum {name}"
            ));
            // `{tag: value}`, for a variant that carries data.
            let tagged = if data_arms.is_empty() {
                not_enum.clone()
            } else {
                format!(
                    "if !__d.next_key()? {{ {not_enum} }} \
                     let __v = match __d.str_key()? {{ \
                       {data_arms} \
                       {SOME}(other) => return ::std::result::Result::Err(::serde::Error::msg(\
                         ::std::format!(\"unknown variant `{{other}}` of {name}\"))), \
                       {NONE} => {{ {} }} \
                     }}; \
                     if __d.next_key()? {{ {not_enum} }} \
                     {OK}(__v)",
                    fail(&format!("expected string variant tag for {name}"))
                )
            };
            format!(
                "if __d.begin_map()? {{ {tagged} }} else {{ \
                   match __d.scalar()? {{ \
                     ::serde::Scalar::Str(tag) => match tag {{ \
                       {unit_arms} \
                       other => ::std::result::Result::Err(::serde::Error::msg(\
                         ::std::format!(\"unknown unit variant `{{other}}` of {name}\"))), \
                     }}, \
                     _ => {{ {not_enum} }} \
                   }} \
                 }}"
            )
        }
    };
    format!(
        "{IMPL_ATTRS}impl ::serde::Deserialize for {name} {{\n\
           fn deserialize<__D: ::serde::Deserializer + ?::std::marker::Sized>(__d: &mut __D) \
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
