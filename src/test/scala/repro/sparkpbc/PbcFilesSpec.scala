package repro.sparkpbc

import java.nio.file.{Files, Path}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{PatternDictionary, PatternExtractor}
import repro.data.MachineData
import scala.util.Random

/** The `.pbc` container on its own, without Spark: random access against
  * the full scan, and the readers' response to damaged footers.
  */
class PbcFilesSpec extends AnyFunSuite {

  private lazy val dict: PatternDictionary =
    PatternExtractor.train(MachineData.records("KV1", 200),
      PatternExtractor.Config(k = 4, sampleSize = 60, maxPatternLen = 200))

  /** `n` random payloads of varied lengths; every tenth one is empty. */
  private def payloads(n: Int, seed: Long = 7L): Vector[Array[Byte]] = {
    val rnd = new Random(seed)
    Vector.tabulate(n) { i =>
      val b = new Array[Byte](if (i % 10 == 3) 0 else rnd.nextInt(300)); rnd.nextBytes(b); b
    }
  }

  private def writeFile(records: Seq[Array[Byte]]): Path = {
    val path = Files.createTempFile("pbc-files", ".pbc")
    path.toFile.deleteOnExit()
    val w = new PbcFiles.Writer(path, dict.serialize)
    records.foreach(w.append)
    assert(w.close() == records.length)
    path
  }

  private def sameBytes(a: Seq[Array[Byte]], b: Seq[Array[Byte]]): Boolean =
    a.length == b.length && a.zip(b).forall { case (x, y) => x.sameElements(y) }

  for (n <- Seq(0, 1, 1000)) {
    test(s"readRecord matches readAll on every record of a $n-record file") {
      val recs = payloads(n)
      val path = writeFile(recs)
      val all = PbcFiles.readAll(path)
      assert(sameBytes(all.records, recs))
      assert(all.dict.serialize.sameElements(dict.serialize))
      assert(PbcFiles.recordCount(path) == n)
      assert(PbcFiles.readDict(path).serialize.sameElements(dict.serialize))
      for (i <- 0 until n)
        assert(PbcFiles.readRecord(path, i).sameElements(all.records(i)), s"record $i")
      intercept[IllegalArgumentException](PbcFiles.readRecord(path, n))
      intercept[IllegalArgumentException](PbcFiles.readRecord(path, -1))
    }
  }

  // ---- damaged footers ----
  //
  // Each damaged file must read exactly as the original did, or fail with
  // an IllegalArgumentException; no other exception type may escape. Only
  // the footer is damaged here. An index entry that is corrupted but still
  // points inside the payload region cannot be detected without a
  // checksum, so it is not tested.

  private def withDamaged(bytes: Array[Byte])(check: Path => Unit): Unit = {
    val path = Files.createTempFile("pbc-damaged", ".pbc")
    try { Files.write(path, bytes); check(path) }
    finally Files.delete(path)
  }

  /** Each reader either reproduces `expected` or throws an IllegalArgumentException. */
  private def assertReadsOrRejects(path: Path, what: String, expected: PbcFiles.Loaded): Unit = {
    def attempt[A](reader: String)(read: => A)(same: A => Boolean): Unit = {
      val got = try Some(read) catch {
        case _: IllegalArgumentException => None
        case e: Exception => fail(s"$what: $reader threw ${e.getClass.getName}: ${e.getMessage}")
      }
      got.foreach(g => assert(same(g), s"$what: $reader returned different data"))
    }
    val n = expected.records.length
    attempt("recordCount")(PbcFiles.recordCount(path))(_ == n)
    attempt("readDict")(PbcFiles.readDict(path))(_.serialize.sameElements(expected.dict.serialize))
    attempt("readAll")(PbcFiles.readAll(path)) { got =>
      got.dict.serialize.sameElements(expected.dict.serialize) && sameBytes(got.records, expected.records)
    }
    for (i <- 0 until n)
      attempt(s"readRecord($i)")(PbcFiles.readRecord(path, i))(_.sameElements(expected.records(i)))
  }

  private lazy val small: Path = writeFile(payloads(5, seed = 11L))

  test("every truncation of a file reads as the original or is rejected") {
    val bytes = Files.readAllBytes(small)
    val expected = PbcFiles.readAll(small)
    for (len <- 0 until bytes.length)
      withDamaged(bytes.take(len))(assertReadsOrRejects(_, s"truncated to $len B", expected))
  }

  test("every flip of a footer byte or bit reads as the original or is rejected") {
    val bytes = Files.readAllBytes(small)
    val expected = PbcFiles.readAll(small)
    for (pos <- bytes.length - 16 until bytes.length; mask <- 0xFF +: (0 until 8).map(1 << _)) {
      val damaged = bytes.clone()
      damaged(pos) = (damaged(pos) ^ mask).toByte
      withDamaged(damaged)(assertReadsOrRejects(_, f"byte $pos xor 0x$mask%02x", expected))
    }
  }
}
