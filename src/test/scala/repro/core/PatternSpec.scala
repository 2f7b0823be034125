package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import PTok._

/** The matcher `Pattern.matchRecord` used before `matchBounds`: literal
  * runs at their earliest position, the trailing run anchored at the end,
  * captures built as it goes. Kept as the reference the allocation-free
  * matcher must agree with.
  */
object PatternReference {
  def matchRecord(p: Pattern, s: String): Option[Vector[String]] = {
    val runs = p.runs
    if (runs.isEmpty) return if (p.numFields == 1) Some(Vector(s)) else None
    val caps = Vector.newBuilder[String]
    var i = 0
    var r = 0
    if (!p.startsWithWild) {
      if (!s.startsWith(runs(0))) return None
      i = runs(0).length; r = 1
    }
    while (r < runs.length) {
      val run = runs(r)
      if (!p.endsWithWild && r == runs.length - 1) {
        val start = s.length - run.length
        if (start < i || !s.startsWith(run, start)) return None
        caps += s.substring(i, start)
        i = s.length
      } else {
        val idx = s.indexOf(run, i)
        if (idx < 0) return None
        caps += s.substring(i, idx)
        i = idx + run.length
      }
      r += 1
    }
    if (p.endsWithWild) caps += s.substring(i)
    else if (i != s.length) return None
    Some(caps.result())
  }
}

class PatternSpec extends AnyFunSuite with PropUtil {

  private def pat(glob: String): Pattern =
    Pattern(PTok.normalize(glob.map { case '*' => Wild; case c => Lit(c) }.toVector))

  // ---- structure ----

  test("runs split on wildcards") {
    assert(pat("ab*c*").runs == Vector("ab", "c"))
    assert(pat("*ab").runs == Vector("ab"))
    assert(pat("abc").runs == Vector("abc"))
  }

  test("numFields and litLen") {
    val p = pat("a*bb*")
    assert(p.numFields == 2)
    assert(p.litLen == 3)
  }

  test("normalize collapses adjacent wildcards") {
    val toks = Vector(Lit('a'), Wild, Wild, Lit('b'), Wild)
    assert(PTok.normalize(toks) == Vector(Lit('a'), Wild, Lit('b'), Wild))
  }

  test("ofRecord produces an exact-literal pattern") {
    val p = Pattern.ofRecord("xyz")
    assert(p.tokens == Vector(Lit('x'), Lit('y'), Lit('z')))
  }

  test("ofRecord truncates long records with a trailing wildcard") {
    val p = Pattern.ofRecord("abcdef", maxLen = 3)
    assert(p.glob == "abc*")
    assert(p.matchRecord("abcdef").contains(Vector("def")))
  }

  // ---- matching ----

  test("exact pattern matches only itself") {
    val p = pat("foobar")
    assert(p.matchRecord("foobar").contains(Vector.empty))
    assert(p.matchRecord("foobarx").isEmpty)
    assert(p.matchRecord("xfoobar").isEmpty)
  }

  test("paper example: *ooba* matches foobar with residuals f, r") {
    assert(pat("*ooba*").matchRecord("foobar").contains(Vector("f", "r")))
  }

  test("paper example: *ob* matches foobar") {
    assert(pat("*ob*").matchRecord("foobar").contains(Vector("fo", "ar")))
  }

  test("anchored tail run") {
    assert(pat("*ab").matchRecord("xxab").contains(Vector("xx")))
    assert(pat("*ab").matchRecord("xxabc").isEmpty)
  }

  test("anchored head run") {
    assert(pat("ab*").matchRecord("abxx").contains(Vector("xx")))
    assert(pat("ab*").matchRecord("zabxx").isEmpty)
  }

  test("wildcards may capture empty strings") {
    assert(pat("a*b*c").matchRecord("abc").contains(Vector("", "")))
  }

  test("middle runs match at the earliest feasible position") {
    assert(pat("*ab*b").matchRecord("aabb").contains(Vector("a", "")))
  }

  test("greedy earliest matching is complete for overlapping runs") {
    assert(pat("*aa*a").matchRecord("aaa").contains(Vector("", "")))
    assert(pat("*ab*ab").matchRecord("abab").contains(Vector("", "")))
  }

  test("no match when a run is missing") {
    assert(pat("*xyz*").matchRecord("abc").isEmpty)
  }

  test("pure-wildcard pattern captures the whole record") {
    assert(Pattern(Vector(Wild)).matchRecord("anything").contains(Vector("anything")))
  }

  test("tail shorter than anchored run fails") {
    assert(pat("a*bcd").matchRecord("abc").isEmpty)
  }

  // ---- render ----

  test("render is the inverse of matchRecord") {
    val p = pat("{\"q\": *, \"ts\": *}")
    val rec = "{\"q\": 17, \"ts\": 163}"
    val caps = p.matchRecord(rec).get
    assert(p.render(caps) == rec)
  }

  test("render with empty fields") {
    assert(pat("a*b*c").render(Vector("", "")) == "abc")
  }

  test("renderWith evaluates fields in order") {
    var order = Vector.empty[Int]
    pat("*x*y*").renderWith(3, { f => order :+= f; f.toString })
    assert(order == Vector(0, 1, 2))
  }

  test("property: render(matchRecord(s)) == s on templated records") {
    forAllSeeded() { r =>
      val a = randomAscii(r, 8).replace("*", "")
      val b = randomAscii(r, 8).replace("*", "")
      val rec = s"pre${a}mid${b}post"
      val p = pat("pre*mid*post")
      p.matchRecord(rec) match {
        case Some(caps) => assert(p.render(caps) == rec)
        case None =>
          // valid: the random fields may contain 'mid'/'post' making an
          // earlier split win — but a match must still exist
          fail(s"expected a match for '$rec'")
      }
    }
  }

  // ---- glob / regex rendering ----

  test("glob escapes literal stars and backslashes") {
    val p = Pattern(Vector(Lit('*'), Wild, Lit('\\')))
    assert(p.glob == "\\**\\\\")
  }

  test("toRegex matches the same records (cross-check)") {
    forAllSeeded(50) { r =>
      val p = pat("ab*cd*e")
      val s = s"ab${randomAscii(r, 5)}cd${randomAscii(r, 5)}e"
      val re = java.util.regex.Pattern.compile(p.toRegex, java.util.regex.Pattern.DOTALL)
      assert(p.matchRecord(s).isDefined == re.matcher(s).matches())
    }
  }

  test("matchRecord agrees with regex on random inputs (completeness)") {
    forAllSeeded(200) { r =>
      val globStr = (1 to 1 + r.nextInt(6)).map { _ =>
        if (r.nextBoolean()) "*" else ('a' + r.nextInt(3)).toChar.toString
      }.mkString
      val p = pat(globStr)
      if (p.numFields == 0 && p.litLen == 0) () // empty pattern — skip
      else {
        val s = (1 to r.nextInt(8)).map(_ => ('a' + r.nextInt(3)).toChar).mkString
        val re = java.util.regex.Pattern.compile(p.toRegex, java.util.regex.Pattern.DOTALL)
        assert(p.matchRecord(s).isDefined == re.matcher(s).matches(),
          s"glob='$globStr' s='$s'")
      }
    }
  }

  // ---- the allocation-free matcher agrees with the reference ----

  private def assertSameAsReference(p: Pattern, s: String): Unit = {
    val want = PatternReference.matchRecord(p, s)
    assert(p.matchRecord(s) == want, s"glob='${p.glob}' s='$s'")
    val bounds = Array.fill(2 * p.numFields)(-1)
    assert(p.matchBounds(s, bounds) == want.isDefined, s"glob='${p.glob}' s='$s'")
    want.foreach { caps =>
      caps.indices.foreach(f => assert(s.substring(bounds(2 * f), bounds(2 * f + 1)) == caps(f)))
    }
  }

  test("matcher agrees with the reference on edge cases") {
    val cases = Seq(
      "*" -> Seq("", "a", "aaa"),
      "a*b" -> Seq("ab", "aab", "abb", "a", "b", "ba", "abab"),
      "ab" -> Seq("ab", "", "abab"),
      "*aa*a" -> Seq("aaa", "aa", "aaaa", "aaba"),
      "*ab*ab" -> Seq("abab", "ab", "aabab"),
      "a*a*a" -> Seq("a", "aa", "aaa", "aaaa"),
      "*a*" -> Seq("", "a", "ba", "bab"),
      "ab*ba" -> Seq("aba", "abba", "abxba")
    )
    for ((g, ss) <- cases; s <- ss) assertSameAsReference(pat(g), s)
    // unnormalized token vectors keep their old captures too
    assertSameAsReference(Pattern(Vector(Wild, Wild)), "ab")
    assertSameAsReference(Pattern(Vector(Lit('a'), Wild, Wild, Lit('b'))), "axb")
    assertSameAsReference(Pattern(Vector.empty), "")
  }

  test("property: matcher agrees with the reference on random globs") {
    forAllSeeded(3000) { r =>
      val letters = 2 + r.nextInt(2)
      def letter(): Char = ('a' + r.nextInt(letters)).toChar
      val globStr = (1 to 1 + r.nextInt(7)).map(_ => if (r.nextInt(3) == 0) '*' else letter()).mkString
      val p = pat(globStr)
      (0 until 10).foreach { _ =>
        assertSameAsReference(p, (1 to r.nextInt(10)).map(_ => letter()).mkString)
      }
      // records built from the glob, so that most of them match
      val filled = globStr.flatMap(c => if (c == '*') (1 to r.nextInt(3)).map(_ => letter()).mkString else c.toString)
      assertSameAsReference(p, filled)
    }
  }
}
