"""A JOB-style workload: 113 queries generated from 33 base-query templates.

The real Join Order Benchmark ships 113 hand-written SQL queries over IMDB,
organized in 33 families ("base queries") of 2-6 variants each; variants share
the same tables and joins and differ only in their filters (Section 7.2 of the
paper).  This module reproduces that structure over the synthetic IMDB schema:
same family layout (4+4+3+...+2+3 = 113 queries), join counts ranging from 3
to 16 joins (template 29 is the largest, as in JOB), and per-variant filters
drawn from the same dimension-value pools the data generator uses, so every
filter is satisfiable.
"""

from __future__ import annotations

from repro.catalog.imdb import (
    COMPANY_TYPES,
    COUNTRY_CODES,
    GENRES,
    INFO_TYPES,
    KEYWORD_POOL,
    KIND_TYPES,
    LINK_TYPES,
    NAME_TOKENS,
    ROLE_TYPES,
)
from repro.catalog.schema import Schema
from repro.workloads.workload import QueryTemplate, Workload, build_workload_from_templates

#: Number of variants of every JOB family (sums to 113, like the real JOB).
JOB_FAMILY_SIZES: dict[str, int] = {
    "1": 4, "2": 4, "3": 3, "4": 3, "5": 3, "6": 6, "7": 3, "8": 4, "9": 4, "10": 3,
    "11": 4, "12": 3, "13": 4, "14": 3, "15": 4, "16": 4, "17": 6, "18": 3, "19": 4,
    "20": 3, "21": 3, "22": 4, "23": 3, "24": 2, "25": 3, "26": 3, "27": 3, "28": 3,
    "29": 3, "30": 3, "31": 3, "32": 2, "33": 3,
}

_YEARS = [1985, 1995, 2000, 2005, 2010, 2015]
_EARLY_YEARS = [1930, 1950, 1970, 1980, 1990, 2000]
_RATINGS = ["5.0", "6.0", "7.0", "8.0", "8.5", "9.0"]
_GENDERS = ["f", "m"]


def _year(i: int) -> int:
    return _YEARS[i % len(_YEARS)]


def _early_year(i: int) -> int:
    return _EARLY_YEARS[i % len(_EARLY_YEARS)]


def _kw(i: int) -> str:
    return KEYWORD_POOL[i % len(KEYWORD_POOL)]


def _country(i: int) -> str:
    return COUNTRY_CODES[i % len(COUNTRY_CODES)]


def _info(i: int) -> str:
    return INFO_TYPES[i % len(INFO_TYPES)]


def _genre(i: int) -> str:
    return GENRES[i % len(GENRES)]


def _ctype(i: int) -> str:
    return COMPANY_TYPES[i % len(COMPANY_TYPES)]


def _kind(i: int) -> str:
    return KIND_TYPES[i % len(KIND_TYPES)]


def _link(i: int) -> str:
    return LINK_TYPES[i % len(LINK_TYPES)]


def _role(i: int) -> str:
    return ROLE_TYPES[i % len(ROLE_TYPES)]


def _name_like(i: int) -> str:
    return f"%{NAME_TOKENS[i % len(NAME_TOKENS)]}%"


def _gender(i: int) -> str:
    return _GENDERS[i % len(_GENDERS)]


def _rating(i: int) -> str:
    return _RATINGS[i % len(_RATINGS)]


def job_templates() -> list[QueryTemplate]:
    """The 33 JOB-style base-query templates."""
    templates: list[QueryTemplate] = []

    def add(family: str, relations, joins, make_filters) -> None:
        templates.append(
            QueryTemplate(
                family=family,
                relations=relations,
                joins=joins,
                n_variants=JOB_FAMILY_SIZES[family],
                make_filters=make_filters,
            )
        )

    # --- small templates (4-6 relations) -----------------------------------------
    add("1",
        [("ct", "company_type"), ("it", "info_type"), ("mc", "movie_companies"),
         ("mi_idx", "movie_info_idx"), ("t", "title")],
        ["t.id = mc.movie_id", "mc.company_type_id = ct.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it.id"],
        lambda i: [
            f"ct.kind = '{_ctype(i)}'",
            f"it.info = '{_info(i + 6)}'",
            f"t.production_year > {_year(i)}",
        ])

    add("2",
        [("cn", "company_name"), ("k", "keyword"), ("mc", "movie_companies"),
         ("mk", "movie_keyword"), ("t", "title")],
        ["t.id = mc.movie_id", "mc.company_id = cn.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            f"cn.country_code = '{_country(i)}'",
            f"k.keyword = '{_kw(i)}'",
        ])

    add("3",
        [("k", "keyword"), ("mi", "movie_info"), ("mk", "movie_keyword"), ("t", "title")],
        ["t.id = mk.movie_id", "mk.keyword_id = k.id", "t.id = mi.movie_id"],
        lambda i: [
            f"k.keyword = '{_kw(i + 3)}'",
            f"mi.info = '{_genre(i)}'",
            f"t.production_year > {_year(i + 1)}",
        ])

    add("4",
        [("it", "info_type"), ("k", "keyword"), ("mi_idx", "movie_info_idx"),
         ("mk", "movie_keyword"), ("t", "title")],
        ["t.id = mi_idx.movie_id", "mi_idx.info_type_id = it.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            "it.info = 'rating'",
            f"k.keyword = '{_kw(i + 5)}'",
            f"mi_idx.info > '{_rating(i)}'",
            f"t.production_year > {_year(i)}",
        ])

    add("5",
        [("ct", "company_type"), ("it", "info_type"), ("mc", "movie_companies"),
         ("mi", "movie_info"), ("t", "title")],
        ["t.id = mc.movie_id", "mc.company_type_id = ct.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id"],
        lambda i: [
            f"ct.kind = '{_ctype(i + 1)}'",
            f"mi.info = '{_genre(i + 2)}'",
            f"t.production_year > {_early_year(i + 3)}",
        ])

    add("6",
        [("ci", "cast_info"), ("k", "keyword"), ("mk", "movie_keyword"),
         ("n", "name"), ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            f"k.keyword = '{_kw(i)}'",
            f"n.name LIKE '{_name_like(i)}'",
            f"t.production_year > {_year(i)}",
        ])

    add("7",
        [("an", "aka_name"), ("ci", "cast_info"), ("it", "info_type"), ("lt", "link_type"),
         ("ml", "movie_link"), ("n", "name"), ("pi", "person_info"), ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id", "n.id = an.person_id",
         "n.id = pi.person_id", "pi.info_type_id = it.id",
         "t.id = ml.movie_id", "ml.link_type_id = lt.id"],
        lambda i: [
            "it.info = 'mini biography'",
            f"lt.link = '{_link(i)}'",
            f"n.name_pcode_cf = 'A5362'",
            f"n.gender = '{_gender(i)}'",
            f"t.production_year BETWEEN {_early_year(i + 2)} AND {_year(i + 2)}",
        ])

    add("8",
        [("an", "aka_name"), ("ci", "cast_info"), ("cn", "company_name"),
         ("ct", "company_type"), ("mc", "movie_companies"), ("n", "name"),
         ("rt", "role_type"), ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id", "ci.role_id = rt.id",
         "n.id = an.person_id", "t.id = mc.movie_id", "mc.company_id = cn.id",
         "mc.company_type_id = ct.id"],
        lambda i: [
            f"cn.country_code = '{_country(i + 4)}'",
            f"rt.role = '{_role(i)}'",
            f"ci.note = '(voice)'",
            f"mc.note LIKE '%(theatrical)%'",
        ])

    add("9",
        [("an", "aka_name"), ("chn", "char_name"), ("ci", "cast_info"),
         ("cn", "company_name"), ("mc", "movie_companies"), ("n", "name"),
         ("rt", "role_type"), ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id", "ci.person_role_id = chn.id",
         "ci.role_id = rt.id", "n.id = an.person_id",
         "t.id = mc.movie_id", "mc.company_id = cn.id"],
        lambda i: [
            f"ci.note = '(voice)'",
            f"cn.country_code = '{_country(i)}'",
            f"n.gender = 'f'",
            f"rt.role = '{_role(i + 1)}'",
            f"t.production_year BETWEEN {_year(i)} AND 2015",
        ])

    add("10",
        [("chn", "char_name"), ("ci", "cast_info"), ("cn", "company_name"),
         ("ct", "company_type"), ("mc", "movie_companies"), ("rt", "role_type"),
         ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_role_id = chn.id", "ci.role_id = rt.id",
         "t.id = mc.movie_id", "mc.company_id = cn.id", "mc.company_type_id = ct.id"],
        lambda i: [
            f"ci.note LIKE '%(voice)%'",
            f"cn.country_code = '{_country(i + 2)}'",
            f"rt.role = '{_role(i + 2)}'",
            f"t.production_year > {_year(i + 2)}",
        ])

    # --- medium templates (8-11 relations) ----------------------------------------
    add("11",
        [("cn", "company_name"), ("ct", "company_type"), ("k", "keyword"),
         ("lt", "link_type"), ("mc", "movie_companies"), ("mk", "movie_keyword"),
         ("ml", "movie_link"), ("t", "title")],
        ["t.id = mc.movie_id", "mc.company_id = cn.id", "mc.company_type_id = ct.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id",
         "t.id = ml.movie_id", "ml.link_type_id = lt.id"],
        lambda i: [
            f"cn.country_code = '{_country(i)}'",
            f"k.keyword = '{_kw(i + 1)}'",
            f"lt.link LIKE '%follow%'",
            f"t.production_year BETWEEN {_early_year(i + 1)} AND {_year(i + 3)}",
        ])

    add("12",
        [("cn", "company_name"), ("ct", "company_type"), ("it", "info_type"),
         ("it2", "info_type"), ("mc", "movie_companies"), ("mi", "movie_info"),
         ("mi_idx", "movie_info_idx"), ("t", "title")],
        ["t.id = mc.movie_id", "mc.company_id = cn.id", "mc.company_type_id = ct.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it2.id"],
        lambda i: [
            f"cn.country_code = '{_country(i + 1)}'",
            f"ct.kind = '{_ctype(i)}'",
            f"it.info = 'genres'",
            "it2.info = 'rating'",
            f"mi.info = '{_genre(i + 1)}'",
            f"mi_idx.info > '{_rating(i + 1)}'",
        ])

    add("13",
        [("cn", "company_name"), ("ct", "company_type"), ("it", "info_type"),
         ("it2", "info_type"), ("kt", "kind_type"), ("mc", "movie_companies"),
         ("mi", "movie_info"), ("mi_idx", "movie_info_idx"), ("t", "title")],
        ["t.id = mc.movie_id", "mc.company_id = cn.id", "mc.company_type_id = ct.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it2.id",
         "t.kind_id = kt.id"],
        lambda i: [
            f"cn.country_code = '{_country(i + 3)}'",
            "it.info = 'release dates'",
            "it2.info = 'rating'",
            f"kt.kind = '{_kind(i)}'",
            f"t.production_year > {_year(i + 1)}",
        ])

    add("14",
        [("cn", "company_name"), ("it", "info_type"), ("it2", "info_type"),
         ("k", "keyword"), ("kt", "kind_type"), ("mc", "movie_companies"),
         ("mi", "movie_info"), ("mi_idx", "movie_info_idx"), ("mk", "movie_keyword"),
         ("t", "title")],
        ["t.id = mc.movie_id", "mc.company_id = cn.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it2.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id", "t.kind_id = kt.id"],
        lambda i: [
            "it.info = 'countries'",
            "it2.info = 'rating'",
            f"k.keyword = '{_kw(i + 2)}'",
            f"kt.kind = '{_kind(i)}'",
            f"mi.info = '{_country(i)}'",
            f"t.production_year > {_year(i)}",
        ])

    add("15",
        [("at", "aka_title"), ("cn", "company_name"), ("ct", "company_type"),
         ("it", "info_type"), ("k", "keyword"), ("mc", "movie_companies"),
         ("mi", "movie_info"), ("mk", "movie_keyword"), ("t", "title")],
        ["t.id = at.movie_id", "t.id = mc.movie_id", "mc.company_id = cn.id",
         "mc.company_type_id = ct.id", "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            f"cn.country_code = '{_country(i)}'",
            "it.info = 'release dates'",
            f"k.keyword = '{_kw(i + 7)}'",
            f"mc.note LIKE '%(VHS)%'",
            f"t.production_year > {_year(i + 2)}",
        ])

    add("16",
        [("an", "aka_name"), ("ci", "cast_info"), ("cn", "company_name"),
         ("k", "keyword"), ("mc", "movie_companies"), ("mk", "movie_keyword"),
         ("n", "name"), ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id", "n.id = an.person_id",
         "t.id = mc.movie_id", "mc.company_id = cn.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            f"cn.country_code = '{_country(i + 5)}'",
            f"k.keyword = '{_kw(i)}'",
            f"t.episode_nr > {5 + i}",
        ])

    add("17",
        [("ci", "cast_info"), ("cn", "company_name"), ("k", "keyword"),
         ("mc", "movie_companies"), ("mk", "movie_keyword"), ("n", "name"),
         ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id",
         "t.id = mc.movie_id", "mc.company_id = cn.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            "k.keyword = 'character-name-in-title'",
            f"n.name LIKE '{_name_like(i)}'",
            f"cn.country_code = '{_country(i)}'",
        ])

    add("18",
        [("ci", "cast_info"), ("it", "info_type"), ("it2", "info_type"),
         ("mi", "movie_info"), ("mi_idx", "movie_info_idx"), ("n", "name"),
         ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it2.id"],
        lambda i: [
            "it.info = 'genres'",
            "it2.info = 'votes'",
            f"n.gender = '{_gender(i)}'",
            f"mi.info = '{_genre(i + 4)}'",
        ])

    add("19",
        [("an", "aka_name"), ("chn", "char_name"), ("ci", "cast_info"),
         ("cn", "company_name"), ("it", "info_type"), ("mc", "movie_companies"),
         ("mi", "movie_info"), ("n", "name"), ("rt", "role_type"), ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id", "ci.person_role_id = chn.id",
         "ci.role_id = rt.id", "n.id = an.person_id",
         "t.id = mc.movie_id", "mc.company_id = cn.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id"],
        lambda i: [
            "it.info = 'release dates'",
            f"ci.note = '(voice)'",
            f"cn.country_code = '{_country(i)}'",
            f"n.gender = 'f'",
            f"rt.role = 'actress'",
            f"t.production_year > {_year(i)}",
        ])

    add("20",
        [("cc", "complete_cast"), ("cct1", "comp_cast_type"), ("cct2", "comp_cast_type"),
         ("chn", "char_name"), ("ci", "cast_info"), ("k", "keyword"),
         ("kt", "kind_type"), ("mk", "movie_keyword"), ("n", "name"), ("t", "title")],
        ["t.id = cc.movie_id", "cc.subject_id = cct1.id", "cc.status_id = cct2.id",
         "t.id = ci.movie_id", "ci.person_id = n.id", "ci.person_role_id = chn.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id", "t.kind_id = kt.id"],
        lambda i: [
            "cct1.kind = 'cast'",
            f"cct2.kind LIKE '%complete%'",
            f"k.keyword = '{_kw(i + 10)}'",
            f"kt.kind = '{_kind(i)}'",
            f"chn.name LIKE '%{['Queen', 'King', 'Agent'][i % 3]}%'",
            f"t.production_year > {_year(i + 4)}",
        ])

    add("21",
        [("cn", "company_name"), ("ct", "company_type"), ("k", "keyword"),
         ("lt", "link_type"), ("mc", "movie_companies"), ("mi", "movie_info"),
         ("mk", "movie_keyword"), ("ml", "movie_link"), ("t", "title")],
        ["t.id = mc.movie_id", "mc.company_id = cn.id", "mc.company_type_id = ct.id",
         "t.id = mi.movie_id", "t.id = mk.movie_id", "mk.keyword_id = k.id",
         "t.id = ml.movie_id", "ml.link_type_id = lt.id"],
        lambda i: [
            f"cn.country_code = '{_country(i + 6)}'",
            f"k.keyword = '{_kw(i + 4)}'",
            f"lt.link LIKE '%follow%'",
            f"mi.info = '{_genre(i)}'",
            f"t.production_year BETWEEN {_early_year(i + 3)} AND {_year(i + 4)}",
        ])

    add("22",
        [("cn", "company_name"), ("ct", "company_type"), ("it", "info_type"),
         ("it2", "info_type"), ("k", "keyword"), ("kt", "kind_type"),
         ("mc", "movie_companies"), ("mi", "movie_info"), ("mi_idx", "movie_info_idx"),
         ("mk", "movie_keyword"), ("t", "title")],
        ["t.id = mc.movie_id", "mc.company_id = cn.id", "mc.company_type_id = ct.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it2.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id", "t.kind_id = kt.id"],
        lambda i: [
            f"cn.country_code != '[us]'",
            "it.info = 'countries'",
            "it2.info = 'rating'",
            f"k.keyword IN ('murder', 'blood', 'violence', 'revenge')",
            f"kt.kind IN ('movie', 'episode')",
            f"mi_idx.info < '{_rating(i + 3)}'",
            f"t.production_year > {_year(i + 1)}",
        ])

    # --- large templates (11-17 relations) -----------------------------------------
    add("23",
        [("cc", "complete_cast"), ("cct1", "comp_cast_type"), ("cn", "company_name"),
         ("ct", "company_type"), ("it", "info_type"), ("k", "keyword"),
         ("kt", "kind_type"), ("mc", "movie_companies"), ("mi", "movie_info"),
         ("mk", "movie_keyword"), ("t", "title")],
        ["t.id = cc.movie_id", "cc.status_id = cct1.id",
         "t.id = mc.movie_id", "mc.company_id = cn.id", "mc.company_type_id = ct.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id", "t.kind_id = kt.id"],
        lambda i: [
            "cct1.kind = 'complete+verified'",
            f"cn.country_code = '{_country(i)}'",
            "it.info = 'release dates'",
            f"k.keyword = '{_kw(i + 12)}'",
            "kt.kind IN ('movie', 'tv movie')",
            f"t.production_year > {_year(i + 2)}",
        ])

    add("24",
        [("an", "aka_name"), ("chn", "char_name"), ("ci", "cast_info"),
         ("cn", "company_name"), ("it", "info_type"), ("k", "keyword"),
         ("mc", "movie_companies"), ("mi", "movie_info"), ("mk", "movie_keyword"),
         ("n", "name"), ("rt", "role_type"), ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id", "ci.person_role_id = chn.id",
         "ci.role_id = rt.id", "n.id = an.person_id",
         "t.id = mc.movie_id", "mc.company_id = cn.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            "it.info = 'release dates'",
            f"ci.note IN ('(voice)', '(uncredited)')",
            f"cn.country_code = '{_country(i)}'",
            f"k.keyword IN ('hero', 'martial-arts', 'blood')",
            "n.gender = 'f'",
            "rt.role = 'actress'",
            f"t.production_year > {_year(i + 3)}",
        ])

    add("25",
        [("ci", "cast_info"), ("it", "info_type"), ("it2", "info_type"),
         ("k", "keyword"), ("mi", "movie_info"), ("mi_idx", "movie_info_idx"),
         ("mk", "movie_keyword"), ("n", "name"), ("rt", "role_type"), ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id", "ci.role_id = rt.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it2.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            "it.info = 'genres'",
            "it2.info = 'votes'",
            f"k.keyword IN ('murder', 'violence', 'blood', 'revenge')",
            f"mi.info = 'Horror'",
            f"n.gender = '{_gender(i + 1)}'",
            "rt.role = 'actor'",
        ])

    add("26",
        [("cc", "complete_cast"), ("cct1", "comp_cast_type"), ("cct2", "comp_cast_type"),
         ("chn", "char_name"), ("ci", "cast_info"), ("it", "info_type"),
         ("k", "keyword"), ("kt", "kind_type"), ("mi_idx", "movie_info_idx"),
         ("mk", "movie_keyword"), ("n", "name"), ("t", "title")],
        ["t.id = cc.movie_id", "cc.subject_id = cct1.id", "cc.status_id = cct2.id",
         "t.id = ci.movie_id", "ci.person_id = n.id", "ci.person_role_id = chn.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id", "t.kind_id = kt.id"],
        lambda i: [
            "cct1.kind = 'cast'",
            "cct2.kind LIKE '%complete%'",
            "it.info = 'rating'",
            f"k.keyword IN ('superhero', 'marvel-comics', 'based-on-comic', 'fight')",
            f"kt.kind = 'movie'",
            f"mi_idx.info > '{_rating(i + 2)}'",
            f"t.production_year > {_year(i)}",
        ])

    add("27",
        [("cc", "complete_cast"), ("cct1", "comp_cast_type"), ("cct2", "comp_cast_type"),
         ("cn", "company_name"), ("ct", "company_type"), ("k", "keyword"),
         ("lt", "link_type"), ("mc", "movie_companies"), ("mi", "movie_info"),
         ("mk", "movie_keyword"), ("ml", "movie_link"), ("t", "title")],
        ["t.id = cc.movie_id", "cc.subject_id = cct1.id", "cc.status_id = cct2.id",
         "t.id = mc.movie_id", "mc.company_id = cn.id", "mc.company_type_id = ct.id",
         "t.id = mi.movie_id", "t.id = mk.movie_id", "mk.keyword_id = k.id",
         "t.id = ml.movie_id", "ml.link_type_id = lt.id"],
        lambda i: [
            "cct1.kind = 'cast'",
            "cct2.kind = 'complete'",
            f"cn.country_code = '{_country(i + 8)}'",
            f"ct.kind = '{_ctype(i)}'",
            f"k.keyword = '{_kw(i + 1)}'",
            "lt.link LIKE '%follow%'",
            f"mi.info = '{_genre(i + 3)}'",
            f"t.production_year BETWEEN {_early_year(i + 4)} AND {_year(i + 5)}",
        ])

    add("28",
        [("cc", "complete_cast"), ("cct1", "comp_cast_type"), ("cct2", "comp_cast_type"),
         ("cn", "company_name"), ("ct", "company_type"), ("it", "info_type"),
         ("it2", "info_type"), ("k", "keyword"), ("kt", "kind_type"),
         ("mc", "movie_companies"), ("mi", "movie_info"), ("mi_idx", "movie_info_idx"),
         ("mk", "movie_keyword"), ("t", "title")],
        ["t.id = cc.movie_id", "cc.subject_id = cct1.id", "cc.status_id = cct2.id",
         "t.id = mc.movie_id", "mc.company_id = cn.id", "mc.company_type_id = ct.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it2.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id", "t.kind_id = kt.id"],
        lambda i: [
            "cct1.kind = 'crew'",
            "cct2.kind != 'complete+verified'",
            f"cn.country_code != '[us]'",
            "it.info = 'countries'",
            "it2.info = 'rating'",
            f"k.keyword IN ('murder', 'web', 'blood')",
            "kt.kind IN ('movie', 'episode')",
            f"mi_idx.info < '{_rating(i + 4)}'",
            f"t.production_year > {_year(i + 2)}",
        ])

    add("29",
        [("an", "aka_name"), ("cc", "complete_cast"), ("cct1", "comp_cast_type"),
         ("cct2", "comp_cast_type"), ("chn", "char_name"), ("ci", "cast_info"),
         ("cn", "company_name"), ("it", "info_type"), ("it2", "info_type"),
         ("k", "keyword"), ("mc", "movie_companies"), ("mi", "movie_info"),
         ("mi_idx", "movie_info_idx"), ("mk", "movie_keyword"), ("n", "name"),
         ("rt", "role_type"), ("t", "title")],
        ["t.id = cc.movie_id", "cc.subject_id = cct1.id", "cc.status_id = cct2.id",
         "t.id = ci.movie_id", "ci.person_id = n.id", "ci.person_role_id = chn.id",
         "ci.role_id = rt.id", "n.id = an.person_id",
         "t.id = mc.movie_id", "mc.company_id = cn.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it2.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            "cct1.kind = 'cast'",
            "cct2.kind = 'complete+verified'",
            f"chn.name LIKE '%Queen%'",
            f"ci.note IN ('(voice)', '(as himself)')",
            f"cn.country_code = '{_country(i)}'",
            "it.info = 'release dates'",
            "it2.info = 'trivia'",
            "k.keyword = 'hero'",
            "n.gender = 'f'",
            "rt.role = 'actress'",
            f"t.production_year BETWEEN {_year(i)} AND 2015",
        ])

    add("30",
        [("cc", "complete_cast"), ("cct1", "comp_cast_type"), ("cct2", "comp_cast_type"),
         ("ci", "cast_info"), ("it", "info_type"), ("it2", "info_type"),
         ("k", "keyword"), ("mi", "movie_info"), ("mi_idx", "movie_info_idx"),
         ("mk", "movie_keyword"), ("n", "name"), ("t", "title")],
        ["t.id = cc.movie_id", "cc.subject_id = cct1.id", "cc.status_id = cct2.id",
         "t.id = ci.movie_id", "ci.person_id = n.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it2.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            "cct1.kind = 'cast'",
            "cct2.kind LIKE '%complete%'",
            "it.info = 'genres'",
            "it2.info = 'votes'",
            f"k.keyword IN ('murder', 'violence', 'blood')",
            f"mi.info IN ('Horror', 'Thriller')",
            "n.gender = 'm'",
            f"t.production_year > {_year(i)}",
        ])

    add("31",
        [("ci", "cast_info"), ("cn", "company_name"), ("it", "info_type"),
         ("it2", "info_type"), ("k", "keyword"), ("mc", "movie_companies"),
         ("mi", "movie_info"), ("mi_idx", "movie_info_idx"), ("mk", "movie_keyword"),
         ("n", "name"), ("rt", "role_type"), ("t", "title")],
        ["t.id = ci.movie_id", "ci.person_id = n.id", "ci.role_id = rt.id",
         "t.id = mc.movie_id", "mc.company_id = cn.id",
         "t.id = mi.movie_id", "mi.info_type_id = it.id",
         "t.id = mi_idx.movie_id", "mi_idx.info_type_id = it2.id",
         "t.id = mk.movie_id", "mk.keyword_id = k.id"],
        lambda i: [
            "it.info = 'genres'",
            "it2.info = 'votes'",
            f"k.keyword IN ('murder', 'violence', 'blood', 'revenge')",
            f"mi.info IN ('Horror', 'Action', 'Sci-Fi', 'Thriller')",
            "n.gender = 'm'",
            f"cn.name LIKE '%{['Film', 'Warner', 'Entertainment'][i % 3]}%'",
            f"rt.role = '{_role(i)}'",
        ])

    add("32",
        [("k", "keyword"), ("lt", "link_type"), ("mk", "movie_keyword"),
         ("ml", "movie_link"), ("t", "title")],
        ["t.id = mk.movie_id", "mk.keyword_id = k.id",
         "t.id = ml.movie_id", "ml.link_type_id = lt.id"],
        lambda i: [
            f"k.keyword = '{['second-part', 'character-name-in-title'][i % 2]}'",
        ])

    add("33",
        [("cn1", "company_name"), ("cn2", "company_name"), ("it1", "info_type"),
         ("it2", "info_type"), ("kt1", "kind_type"), ("kt2", "kind_type"),
         ("lt", "link_type"), ("mc1", "movie_companies"), ("mc2", "movie_companies"),
         ("mi_idx1", "movie_info_idx"), ("mi_idx2", "movie_info_idx"),
         ("ml", "movie_link"), ("t1", "title"), ("t2", "title")],
        ["ml.movie_id = t1.id", "ml.linked_movie_id = t2.id", "ml.link_type_id = lt.id",
         "mi_idx1.movie_id = t1.id", "mi_idx1.info_type_id = it1.id",
         "mi_idx2.movie_id = t2.id", "mi_idx2.info_type_id = it2.id",
         "t1.kind_id = kt1.id", "t2.kind_id = kt2.id",
         "mc1.movie_id = t1.id", "mc1.company_id = cn1.id",
         "mc2.movie_id = t2.id", "mc2.company_id = cn2.id"],
        lambda i: [
            f"cn1.country_code = '{_country(i)}'",
            "it1.info = 'rating'",
            "it2.info = 'rating'",
            "kt1.kind = 'tv series'",
            f"kt2.kind IN ('tv series', 'episode')",
            "lt.link IN ('sequel', 'follows', 'followed by')",
            f"mi_idx2.info < '{_rating(i + 1)}'",
            f"t2.production_year BETWEEN {_year(i)} AND 2015",
        ])

    return templates


def build_job_workload(schema: Schema) -> Workload:
    """Build the 113-query JOB-style workload bound against ``schema``."""
    return build_workload_from_templates("job", schema, job_templates())
