package repro.core

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.data.MachineData
import repro.tables.Dictionaries

/** Pins the codec's exact output on fixed inputs. The dictionary and the
  * compressed records have separate digests, so a failure tells a change
  * in training apart from a change in the encoder. A change meant to be
  * byte-identical must leave both digests as they are. The digests were
  * taken from the codec before its indexed FSST lookup and
  * allocation-free matcher.
  */
class CodecGoldenSpec extends AnyFunSuite {

  private def sha256(chunks: Iterator[Array[Byte]]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    chunks.foreach(md.update)
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def golden(name: String, useFsst: Boolean, dictDigest: String, codedDigest: String): Unit = {
    val records = MachineData.records(name, 3000, seed = 5L)
    val cfg = Dictionaries.pbcConfig(name).copy(withFsst = useFsst)
    val dict = PatternExtractor.train(records, cfg)
    val codec = new PbcCodec(dict, useFsst)
    val coded = records.map(codec.compress)
    records.zip(coded).foreach { case (r, c) => assert(codec.decompress(c) == r, s"lossy on: $r") }
    assert(sha256(Iterator(dict.serialize)) == dictDigest, "dictionary changed")
    assert(sha256(coded.iterator) == codedDigest, "compressed records changed")
  }

  test("plain PBC on Hadoop: pinned dictionary and output") {
    golden("Hadoop", useFsst = false,
      dictDigest = "07446eb10c71780d80d17a0d0468b02b9908b30f3579aeb81523446805474b24",
      codedDigest = "8743e5087960f76bffa165a14b7497da80bbdc827bcdb8ebb0661ac27542a196")
  }

  test("PBC_F on KV2: pinned dictionary and output") {
    golden("KV2", useFsst = true,
      dictDigest = "aaab0fe7c575dfe9cb74abfee05e5e0f6b3b67d29a99bc686be967dfff16adaa",
      codedDigest = "9c8be1563385386d5e7a16d1715d06b8c14c1051bb58960d57836dd419cb7bc9")
  }
}
