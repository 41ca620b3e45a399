//! Result files: a small JSON value (over the workspace's serde
//! stand-in) with the builders and readers `run` and `compare` need.

use serde::{Content, Deserialize, Serialize};

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(Content);

impl Serialize for Json {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        Ok(Json(content.clone()))
    }
}

impl Json {
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json(Content::Map(
            entries
                .into_iter()
                .map(|(k, v)| (Content::Str(k.to_owned()), v.0))
                .collect(),
        ))
    }

    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json(Content::Seq(items.into_iter().map(|j| j.0).collect()))
    }

    pub fn num(x: f64) -> Json {
        Json(Content::F64(x))
    }

    pub fn int(n: u64) -> Json {
        Json(Content::U64(n))
    }

    pub fn str(s: &str) -> Json {
        Json(Content::Str(s.to_owned()))
    }

    pub fn bool(b: bool) -> Json {
        Json(Content::Bool(b))
    }

    /// Appends (or replaces) a key of an object.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Content::Map(entries) = &mut self.0 {
            entries.retain(|(k, _)| !matches!(k, Content::Str(s) if s == key));
            entries.push((Content::Str(key.to_owned()), value.0));
        }
    }

    pub fn get(&self, key: &str) -> Option<Json> {
        self.0.field(key).cloned().map(Json)
    }

    /// The string under `key`.
    #[cfg(test)]
    pub fn text_at(&self, key: &str) -> Option<String> {
        match self.get(key)?.0 {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number under `key`.
    pub fn number_at(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(|v| v.number())
    }

    pub fn items(&self) -> Option<Vec<Json>> {
        match &self.0 {
            Content::Seq(items) => Some(items.iter().cloned().map(Json).collect()),
            _ => None,
        }
    }

    pub fn entries(&self) -> Vec<(String, Json)> {
        match &self.0 {
            Content::Map(entries) => entries
                .iter()
                .filter_map(|(k, v)| match k {
                    Content::Str(s) => Some((s.clone(), Json(v.clone()))),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    pub fn number(&self) -> Option<f64> {
        match self.0 {
            Content::F64(x) => Some(x),
            Content::U64(n) => Some(n as f64),
            Content::I64(n) => Some(n as f64),
            _ => None,
        }
    }

    pub fn truth(&self) -> Option<bool> {
        match self.0 {
            Content::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Compact, on one line.
    pub fn line(&self) -> String {
        serde_json::to_string(self).expect("finite numbers only")
    }

    pub fn pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("finite numbers only")
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    serde_json::from_str::<Json>(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_reads_and_round_trips() {
        let mut j = Json::obj(vec![
            ("name", Json::str("x")),
            ("samples", Json::arr([Json::num(1.5), Json::int(2)])),
            ("quick", Json::bool(false)),
        ]);
        j.set("name", Json::str("y"));
        assert_eq!(j.text_at("name").as_deref(), Some("y"));
        let back = parse(&j.line()).unwrap();
        let samples: Vec<f64> = back
            .get("samples")
            .and_then(|s| s.items())
            .unwrap()
            .iter()
            .filter_map(Json::number)
            .collect();
        assert_eq!(samples, vec![1.5, 2.0]);
        assert_eq!(back.get("quick").unwrap().truth(), Some(false));
        assert_eq!(back.entries().len(), 3);
        assert!(!j.line().contains('\n'));
        assert_eq!(parse(&j.pretty()).unwrap().line(), back.line());
        assert!(parse("{").is_err());
    }
}
